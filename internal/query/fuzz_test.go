package query

import (
	"reflect"
	"testing"
)

// FuzzQuery feeds arbitrary text to Parse, which must never panic.
// When the text parses and checks against the seeded SimpleNewscast
// class, an engine with a hash index on every indexable attribute and
// one with a B-tree index on every ordered attribute must return the
// same OIDs, in the same order, as an engine with no index.
func FuzzQuery(f *testing.F) {
	for _, src := range []string{
		`select SimpleNewscast where (title = "60 Minutes" and whenBroadcast = 1993-01-19)`,
		`select SimpleNewscast where runtimeMin >= 30 and rating < 4.5`,
		`select SimpleNewscast where not archived = true or broadcastSource = "NBC"`,
		`select SimpleNewscast where title contains "News" and runtimeMin <= 25`,
		`select SimpleNewscast where whenBroadcast > 1993-01-20 and runtimeMin != 21`,
		`select MediaObject where title = "Tech Today"`,
		`select SimpleNewscast`,
		`select SimpleNewscast where rating = 1.5 and rating > 1`,
		`select C where a = 1 or b = 2 and not c = 3`,
		`select SimpleNewscast where (x = 1`,
	} {
		f.Add(src)
	}
	_, _, plain := newsDB(f, 60)
	_, _, hashed := newsDB(f, 60)
	_, _, treed := newsDB(f, 60)
	for _, attr := range []string{"title", "broadcastSource", "whenBroadcast", "runtimeMin", "rating", "archived"} {
		if _, err := hashed.CreateIndex("SimpleNewscast", attr, HashIndex); err != nil {
			f.Fatal(err)
		}
		if attr == "archived" {
			continue // boolean attributes take hash indexes only
		}
		if _, err := treed.CreateIndex("SimpleNewscast", attr, BTreeIndex); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err != nil {
			return
		}
		want, err := plain.RunString(src)
		if err != nil {
			return
		}
		for _, ix := range []struct {
			name string
			eng  *Engine
		}{{"hash", hashed}, {"btree", treed}} {
			got, err := ix.eng.RunString(src)
			if err != nil {
				t.Fatalf("%q: %s-indexed run failed: %v", src, ix.name, err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%q: %s-indexed run = %v, no index = %v", src, ix.name, got, want)
			}
		}
	})
}
