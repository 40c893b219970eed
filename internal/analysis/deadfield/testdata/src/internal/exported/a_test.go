package exported

import "testing"

func TestShow(t *testing.T) {
	s := Fill()
	s.OnlyCap = 8 // set only by a test, like a removed knob's last caller
	_ = Show(s)
}
