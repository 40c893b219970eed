package tpcc

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"met/internal/hbase"
	"met/internal/hdfs"
	"met/internal/sim"
)

func newLoadedCluster(t *testing.T, cfg Config, servers int) (*hbase.Master, *hbase.Client, *Loader) {
	t.Helper()
	m := hbase.NewMaster(hdfs.NewNamenode(2))
	for i := 0; i < servers; i++ {
		if _, err := m.AddServer(fmt.Sprintf("rs%d", i), hbase.DefaultServerConfig()); err != nil {
			t.Fatal(err)
		}
	}
	c := hbase.NewClient(m)
	l := &Loader{Cfg: cfg, Client: c}
	if err := l.CreateTables(m, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(); err != nil {
		t.Fatal(err)
	}
	return m, c, l
}

func TestConfigValidate(t *testing.T) {
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{}).Validate() == nil {
		t.Fatal("zero config accepted")
	}
}

func TestKeyEncodingsOrdered(t *testing.T) {
	// Warehouse prefixes must sort numerically so prefix splits work.
	if WarehousePrefix(2) >= WarehousePrefix(10) {
		t.Fatal("warehouse prefixes not ordered")
	}
	if OrderKey(1, 1, 5) >= OrderKey(1, 1, 40) {
		t.Fatal("order keys not ordered")
	}
	if OrderLineKey(1, 1, 5, 1) >= OrderLineKey(1, 1, 5, 12) {
		t.Fatal("order line keys not ordered")
	}
	// Scoping: all of warehouse 1's district keys share its prefix.
	if got := DistrictKey(1, 3); got[:6] != WarehousePrefix(1) {
		t.Fatalf("district key %q not warehouse-prefixed", got)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	fields := map[string]string{"A": "1", "B": "x=y", "C_BALANCE": "-10.55"}
	// Note: values containing '=' survive because we split on the first '='.
	enc := encodeRow(map[string]string{"A": "1", "C_BALANCE": "-10.55"}, 8)
	dec := decodeRow(enc)
	if dec["A"] != "1" || dec["C_BALANCE"] != "-10.55" {
		t.Fatalf("round trip = %v", dec)
	}
	if fieldFloat(dec, "C_BALANCE") != -10.55 {
		t.Fatalf("fieldFloat = %v", fieldFloat(dec, "C_BALANCE"))
	}
	if fieldInt(map[string]string{"N": "42"}, "N") != 42 {
		t.Fatal("fieldInt failed")
	}
	if fieldInt(dec, "MISSING") != 0 || fieldFloat(dec, "MISSING") != 0 {
		t.Fatal("missing fields should be zero")
	}
	_ = fields
	// Empty row decodes to empty map.
	if len(decodeRow([]byte("#xxxx"))) != 0 {
		t.Fatal("filler-only row not empty")
	}
}

func TestNURandRange(t *testing.T) {
	r := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := NURand(r, 1023, 1, 3000)
		if v < 1 || v > 3000 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
}

func TestLoaderPopulates(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 2)
	// Spot-check each table.
	if _, err := c.Get(TableWarehouse, WarehouseKey(1)); err != nil {
		t.Fatalf("warehouse missing: %v", err)
	}
	if _, err := c.Get(TableDistrict, DistrictKey(2, 2)); err != nil {
		t.Fatalf("district missing: %v", err)
	}
	if _, err := c.Get(TableCustomer, CustomerKey(1, 1, cfg.CustomersPerDistrict)); err != nil {
		t.Fatalf("customer missing: %v", err)
	}
	if _, err := c.Get(TableItem, ItemKey(cfg.Items)); err != nil {
		t.Fatalf("item missing: %v", err)
	}
	if _, err := c.Get(TableStock, StockKey(2, 1)); err != nil {
		t.Fatalf("stock missing: %v", err)
	}
	if _, err := c.Get(TableOrder, OrderKey(1, 1, 1)); err != nil {
		t.Fatalf("order missing: %v", err)
	}
}

func TestLoaderRowCount(t *testing.T) {
	cfg := Small()
	m := hbase.NewMaster(hdfs.NewNamenode(1))
	m.AddServer("rs0", hbase.DefaultServerConfig())
	c := hbase.NewClient(m)
	l := &Loader{Cfg: cfg, Client: c}
	if err := l.CreateTables(m, 1); err != nil {
		t.Fatal(err)
	}
	rows, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	// items + per-wh (1 + stock + per-district(1 + customers + orders + lines + neworders))
	perDistNO := cfg.InitialOrdersPerDist - cfg.InitialOrdersPerDist*2/3
	want := int64(cfg.Items)
	want += int64(cfg.Warehouses) * int64(1+cfg.Items)
	want += int64(cfg.Warehouses*cfg.DistrictsPerWH) * int64(1+cfg.CustomersPerDistrict+2*cfg.InitialOrdersPerDist+perDistNO)
	if rows != want {
		t.Fatalf("rows = %d, want %d", rows, want)
	}
}

func TestNewOrderIncrementsOID(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(2))
	before, _ := e.getRow(TableDistrict, DistrictKey(1, 1))
	startOID := fieldInt(before, "D_NEXT_O_ID")
	for i := 0; i < 5; i++ {
		if err := e.NewOrder(1); err != nil {
			t.Fatal(err)
		}
	}
	// At least one of the districts advanced; check both.
	advanced := 0
	for d := 1; d <= cfg.DistrictsPerWH; d++ {
		row, _ := e.getRow(TableDistrict, DistrictKey(1, d))
		if fieldInt(row, "D_NEXT_O_ID") > startOID {
			advanced++
		}
	}
	if advanced == 0 {
		t.Fatal("no district order counter advanced")
	}
}

func TestNewOrderWritesLines(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(3))
	if err := e.NewOrder(1); err != nil {
		t.Fatal(err)
	}
	// Find the new order (oid = initial next oid) in some district.
	oid := cfg.InitialOrdersPerDist + 1
	found := false
	for d := 1; d <= cfg.DistrictsPerWH; d++ {
		if _, err := e.getRow(TableOrder, OrderKey(1, d, oid)); err == nil {
			lines, err := c.Scan(TableOrderLine, OrderLineKey(1, d, oid, 1), "", -1)
			if err != nil || len(lines) < 5 {
				t.Fatalf("order lines = %d, %v", len(lines), err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("new order row not found")
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(4))
	before, _ := e.getRow(TableWarehouse, WarehouseKey(1))
	ytdBefore := fieldFloat(before, "W_YTD")
	if err := e.Payment(1); err != nil {
		t.Fatal(err)
	}
	after, _ := e.getRow(TableWarehouse, WarehouseKey(1))
	if fieldFloat(after, "W_YTD") <= ytdBefore {
		t.Fatalf("W_YTD not increased: %v -> %v", ytdBefore, fieldFloat(after, "W_YTD"))
	}
	// A history row exists.
	entries, err := c.Scan(TableHistory, "", "", -1)
	if err != nil || len(entries) == 0 {
		t.Fatalf("history rows = %d, %v", len(entries), err)
	}
}

func TestOrderStatusReadsWithoutWrites(t *testing.T) {
	cfg := Small()
	m, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(5))
	rs, _ := m.Server("rs0")
	writesBefore := rs.Requests().Writes
	if err := e.OrderStatus(1); err != nil {
		t.Fatal(err)
	}
	if rs.Requests().Writes != writesBefore {
		t.Fatal("OrderStatus wrote rows")
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(6))
	before, _ := c.Scan(TableNewOrder, "", "", -1)
	if len(before) == 0 {
		t.Fatal("no initial new orders loaded")
	}
	if err := e.Delivery(1); err != nil {
		t.Fatal(err)
	}
	after, _ := c.Scan(TableNewOrder, "", "", -1)
	if len(after) >= len(before) {
		t.Fatalf("new orders not consumed: %d -> %d", len(before), len(after))
	}
	// The delivered order got a carrier id.
	no := decodeRow(before[0].Value)
	oid := fieldInt(no, "NO_O_ID")
	order, err := e.getRow(TableOrder, OrderKey(1, 1, oid))
	if err == nil && fieldInt(order, "O_CARRIER_ID") == 0 {
		t.Fatal("delivered order has no carrier")
	}
}

func TestStockLevelRuns(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(7))
	if err := e.StockLevel(1); err != nil {
		t.Fatal(err)
	}
}

func TestDriverMixAndTpmC(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 2)
	e := NewExecutor(cfg, c, sim.NewRNG(8))
	d := NewDriver(e)
	const n = 400
	if err := d.Run(n); err != nil {
		t.Fatal(err)
	}
	res := d.Result()
	if res.Total() != n {
		t.Fatalf("total = %d", res.Total())
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// Mix approximates the standard proportions.
	noFrac := float64(res.NewOrders()) / n
	if math.Abs(noFrac-0.45) > 0.1 {
		t.Fatalf("NewOrder fraction = %v", noFrac)
	}
	ro := res.ReadOnlyFraction()
	if ro < 0.02 || ro > 0.2 {
		t.Fatalf("read-only fraction = %v, expected near 0.08", ro)
	}
	// tpmC arithmetic.
	if got := TpmC(100, 10*sim.Minute); got != 10 {
		t.Fatalf("TpmC = %v", got)
	}
	if TpmC(100, 0) != 0 {
		t.Fatal("TpmC with zero window")
	}
}

func TestPickTxCoversAllTypes(t *testing.T) {
	e := &Executor{RNG: sim.NewRNG(9), Cfg: Small()}
	counts := map[TxType]int{}
	for i := 0; i < 20000; i++ {
		counts[e.PickTx()]++
	}
	for tx, p := range StandardMix {
		frac := float64(counts[tx]) / 20000
		if math.Abs(frac-p) > 0.02 {
			t.Errorf("%v fraction = %v, want %v", tx, frac, p)
		}
	}
}

func TestTxTypeString(t *testing.T) {
	for tx := range StandardMix {
		if tx.String() == "" {
			t.Fatal("empty tx string")
		}
	}
	if TxType(42).String() == "" {
		t.Fatal("unknown tx string empty")
	}
}

func TestExecuteUnknownTx(t *testing.T) {
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(10))
	if err := e.Execute(TxType(42)); err == nil {
		t.Fatal("unknown tx accepted")
	}
}

func TestWarehousePartitioning(t *testing.T) {
	// With warehousesPerRegion=1 and 2 warehouses, warehouse tables get
	// 2 regions each.
	cfg := Small()
	m, _, _ := newLoadedCluster(t, cfg, 2)
	tbl, err := m.Table(TableStock)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Regions()) != 2 {
		t.Fatalf("stock regions = %d, want 2", len(tbl.Regions()))
	}
	itemTbl, _ := m.Table(TableItem)
	if len(itemTbl.Regions()) != 1 {
		t.Fatalf("item regions = %d, want 1", len(itemTbl.Regions()))
	}
	// Rows route by warehouse: stock of wh1 and wh2 in different regions.
	if lo := tbl.Regions()[0]; !lo.Contains(StockKey(1, 1)) || lo.Contains(StockKey(2, 1)) {
		t.Fatal("warehouses share a region")
	}
}

func TestConcurrentOIDCacheMonotonic(t *testing.T) {
	// The executor's OID cache prevents reusing an order id even if the
	// stored row lags (record-level atomicity caveat).
	cfg := Small()
	_, c, _ := newLoadedCluster(t, cfg, 1)
	e := NewExecutor(cfg, c, sim.NewRNG(11))
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		oid, err := e.nextOrderID(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		key := strconv.Itoa(oid)
		if seen[key] {
			t.Fatalf("order id %d reused", oid)
		}
		seen[key] = true
	}
}
