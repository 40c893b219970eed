package deadfield

import (
	"encoding/json"
	"sync"
)

type config struct {
	size    int    // want `field size is read but never set outside tests`
	limit   int    // want `field limit is set but never read outside tests`
	name    string // a keyed literal sets it
	wire    string `json:"wire"`
	testSet int    // want `field testSet is read but never set outside tests`
	allowed int    //lint:allow deadfield the fixture's suppressed finding
	mu      sync.Mutex
	n       int
	arr     [2]int
	inner   struct {
		depth int // set in place through inner
		spare int // want `field spare is set but never read outside tests`
	}
	ptr    *config
	unused int // nothing uses it: staticcheck's job
	Public int // exported: only Module judges it
}

// pair is set by an unkeyed literal.
type pair struct{ a, b int }

func newConfig() *config {
	c := &config{limit: 3, name: "x", Public: 1}
	c.arr[1] = 2
	c.inner.depth = 4
	c.inner.spare = 5
	c.ptr = c
	c.ptr.n = 1
	return c
}

func (c *config) use() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	p := pair{1, 2}
	var w struct{ Wire string }
	_ = json.Unmarshal([]byte(c.wire), &w)
	return c.size + len(c.name) + c.testSet + c.allowed + c.n + c.arr[0] + c.inner.depth + p.a + p.b + len(w.Wire)
}

// key is a map key: hashing reads both fields.
type key struct{ file, block int }

// version is compared whole.
type version struct{ major, minor int }

func lookup(m map[key]string, a, b version) (string, bool) {
	return m[key{1, 2}], a == b
}

func upgraded() bool {
	_, same := lookup(nil, version{1, 0}, version{1, 1})
	return !same
}
