package index

import (
	"bytes"
	"testing"

	"ktg/internal/obs"
)

// TestBuildAndSerializeMetrics pins the index metrics: every build bumps
// ktg_index_builds_total, every Save ktg_index_serialize_total, and every
// Read* ktg_index_deserialize_total.
func TestBuildAndSerializeMetrics(t *testing.T) {
	g := fixture()
	counter := func(name string) int64 { return obs.Default().Counter(name, "").Value() }
	expect := func(what, name string, before, delta int64) {
		t.Helper()
		if got := counter(name); got != before+delta {
			t.Errorf("%s: %s went %d -> %d, want +%d", what, name, before, got, delta)
		}
	}
	const (
		builds = "ktg_index_builds_total"
		saves  = "ktg_index_serialize_total"
		loads  = "ktg_index_deserialize_total"
	)

	b0 := counter(builds)
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	expect("BuildNL", builds, b0, 1)
	x, err := BuildNLRNLWith(g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expect("BuildNLRNLWith", builds, b0, 2)

	s0, l0 := counter(saves), counter(loads)
	var nlBuf, xBuf bytes.Buffer
	if err := nl.Save(&nlBuf); err != nil {
		t.Fatal(err)
	}
	if err := x.Save(&xBuf); err != nil {
		t.Fatal(err)
	}
	expect("Save", saves, s0, 2)
	if _, err := ReadNL(&nlBuf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadNLRNL(&xBuf, g); err != nil {
		t.Fatal(err)
	}
	expect("Read*", loads, l0, 2)
	expect("Read*", builds, b0, 2)
}

func TestBuildNLRNLWithoutOptionsStillWorks(t *testing.T) {
	g := fixture()
	a, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNLRNLWith(g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries() != b.Entries() {
		t.Errorf("BuildNLRNL and BuildNLRNLWith disagree: %d vs %d entries", a.Entries(), b.Entries())
	}
}
