package exported

// Stats is read and written by other packages of the module too.
type Stats struct {
	Reads   int // want `field Reads is read but never set outside tests`
	Writes  int // want `field Writes is set but never read outside tests`
	Both    int
	Tagged  int      `json:"tagged"`
	OnlyCap int      // want `field OnlyCap is read but never set outside tests`
	Nested  struct { // want `field Nested is set but never read outside tests`
		Depth int // want `field Depth is set but never read outside tests`
	}
	hidden int // want `field hidden is read but never set outside tests`
}

func Fill() Stats {
	s := Stats{Writes: 1, Both: 2}
	s.Nested.Depth = 3
	return s
}

func Show(s Stats) int { return s.Reads + s.Both + s.OnlyCap + s.hidden + s.Tagged }
