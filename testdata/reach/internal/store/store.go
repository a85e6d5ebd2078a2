// Package store seeds each mistake the reachability gate must catch.
package store

// Live is called by the app.
func Live() int { return 1 }

// Dead is called by nothing: the gate reports it.
func Dead() int { return 2 }

// Config has one field the app sets and one only a test sets.
type Config struct {
	Size int
	// Spare is set by fill and by a test, neither of which counts.
	Spare int
}

func (c *Config) fill() {
	if c.Spare == 0 {
		c.Spare = 1
	}
}

// PublicConfig is exposed by package api, so its fields count as set.
type PublicConfig struct {
	Depth int
}

// Store answers requests through opTable.
type Store struct{ cfg Config }

// Only is called by a test alone.
func (s *Store) Only() int { return s.cfg.Spare }

// String is live: it satisfies fmt.Stringer.
func (s *Store) String() string { return "store" }

// Legacy is dead, and its keep gives no reason.
//
//reach:keep
func Legacy() {}

// Kept is live, so its keep is wrong.
//
//reach:keep a reason that no longer holds
func Kept() int { return 3 }

// Reference is dead but kept; what only it uses needs no keep.
//
//reach:keep the oracle a test compares Get against
func Reference() int { return Helper() }

// Helper is used by Reference alone.
func Helper() int { return 4 }

var opTable = [...]opRow{
	{name: "get", handle: (*Store).get},
	{name: "drop", handle: (*Store).drop},
}

type request struct{ Op string }

type opRow struct {
	name   string
	handle func(*Store, *request) int
}

// New returns a store.
func New(cfg Config) *Store {
	cfg.fill()
	return &Store{cfg: cfg}
}

// Get sends a "get" request.
func (s *Store) Get() int { return s.call(&request{Op: "get"}) }

func (s *Store) call(req *request) int {
	for _, op := range opTable {
		if op.name == req.Op {
			return op.handle(s, req)
		}
	}
	return -1
}

func (s *Store) get(*request) int  { return s.cfg.Size }
func (s *Store) drop(*request) int { return 0 }

// trim is unexported and only a test calls it: the gate reports it.
func trim(s string) string { return s[:1] }
