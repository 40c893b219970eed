package deadfield

import "testing"

func TestUse(t *testing.T) {
	c := newConfig()
	c.testSet = 1 // a test setting a field does not make it live
	c.size = c.limit
	_ = c.use()
}
