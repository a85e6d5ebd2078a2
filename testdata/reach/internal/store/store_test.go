package store

import "testing"

// A test's references and sets do not make anything live.
func TestOnly(t *testing.T) {
	s := New(Config{Spare: 5})
	if s.Only() != 5 || Dead() != 2 || trim("ab") != "a" {
		t.Fatal("store")
	}
}
