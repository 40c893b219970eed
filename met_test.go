package met

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"met/internal/hbase"
	"met/internal/kv"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Master.Servers()) != 2 {
		t.Fatalf("servers = %d", len(c.Master.Servers()))
	}
}

func TestClusterCRUDRoundTrip(t *testing.T) {
	c, _ := NewCluster(2)
	if err := c.CreateTable("t", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Put("t", fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := c.Get("t", "k25")
	if err != nil || v[0] != 25 {
		t.Fatalf("get = %v, %v", v, err)
	}
	keys, values, err := c.Scan("t", "k10", "k20", -1)
	if err != nil || len(keys) != 10 || len(values) != 10 {
		t.Fatalf("scan = %d keys, %v", len(keys), err)
	}
	if err := c.Delete("t", "k25"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t", "k25"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	if err := DefaultServerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for ty, cfg := range Table1Profiles() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v profile: %v", ty, err)
		}
	}
	p := DefaultParams()
	if p.SubOptimalNodesThreshold != 0.5 || p.MinSamples != 6 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func TestControllerOverPublicAPI(t *testing.T) {
	c, _ := NewCluster(3)
	for _, tbl := range []string{"reads", "writes"} {
		if err := c.CreateTable(tbl, []string{"m"}); err != nil {
			t.Fatal(err)
		}
	}
	params := DefaultParams()
	params.MinSamples = 2
	params.MinNodes = 3
	params.MaxNodes = 3
	ctrl := NewController(c, params, 10)
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("k%03d", i)
			c.Put("writes", key, []byte("v"))
			c.Put("reads", key, []byte("v"))
			c.Get("reads", key)
			c.Get("reads", key)
		}
		ctrl.Tick()
	}
	if err := ctrl.Err(); err != nil {
		t.Fatal(err)
	}
	if ctrl.Actuations() == 0 {
		t.Fatal("controller never actuated under load")
	}
	configs := map[string]bool{}
	for _, rs := range c.Master.Servers() {
		configs[rs.Config().String()] = true
	}
	if len(configs) < 2 {
		t.Fatal("cluster still homogeneous")
	}
	// Data remains available.
	if _, err := c.Get("reads", "k005"); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTypeConstants(t *testing.T) {
	profiles := Table1Profiles()
	if profiles[Read].BlockBytes != 32<<10 || profiles[Scan].BlockBytes != 128<<10 {
		t.Fatal("profile constants wired wrong")
	}
	if profiles[Write].MemstoreFraction != 0.55 || profiles[ReadWrite].BlockCacheFraction != 0.45 {
		t.Fatal("profile fractions wired wrong")
	}
}

func TestExperimentAliases(t *testing.T) {
	// Types are aliases, so results interoperate with internal/exp.
	var _ *Figure1
	var _ *Figure4
	var _ *Table2
	var _ *Elasticity
	var _ ServerConfig = hbase.DefaultServerConfig()
}

func TestPrintAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	var sb strings.Builder
	PrintAll(&sb, 1)
	out := sb.String()
	for _, want := range []string{"Figure 1", "Figure 4", "Table 2", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}
