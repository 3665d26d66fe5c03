package main

import (
	"bytes"
	"maps"
	"testing"
)

// corpusCounts runs one traced corpus pass at a seed and returns its
// lift counts and op report.
func corpusCounts(seed uint64) (*liftTrace, *report) {
	t, r := newLiftTrace(), newReport()
	corpusPasses(corpusInputs(seed), 0, r, t)
	return t, r
}

// TestCountsRepeatExactly pins the counts later changes may cite: the
// lift counts and the fuzz verdicts repeat exactly at one seed, while a
// second seed changes the inputs and the corpus still verifies.
func TestCountsRepeatExactly(t *testing.T) {
	a, ra := corpusCounts(1)
	b, rb := corpusCounts(1)
	if a.insts != b.insts || a.steps != b.steps || a.samples != b.samples {
		t.Errorf("seed 1 counts differ between runs: insts %d/%d steps %d/%d samples %d/%d",
			a.insts, b.insts, a.steps, b.steps, a.samples, b.samples)
	}
	for _, r := range []*report{ra, rb} {
		if r.Attempted != 9 || r.Failed != 0 {
			t.Errorf("seed 1 corpus: %d of %d ops failed: %v", r.Failed, r.Attempted, r.Problems)
		}
	}

	one, two := corpusInputs(1), corpusInputs(2)
	for i := range one {
		if bytes.Equal(one[i].InputInterior, two[i].InputInterior) {
			t.Errorf("%s: seed 2 input equals seed 1 input", one[i].Name)
		}
	}
	if _, r := corpusCounts(2); r.Attempted != 9 || r.Failed != 0 {
		t.Errorf("seed 2 corpus: %d of %d ops failed: %v", r.Failed, r.Attempted, r.Problems)
	}

	specs := fuzzSpecs(1)[:64]
	_, _, first := fuzzPasses(specs, 0, newReport())
	_, _, again := fuzzPasses(specs, 0, newReport())
	va, vb := verdictCounts(first), verdictCounts(again)
	if !maps.Equal(va, vb) {
		t.Errorf("fuzz verdicts differ between runs: %v vs %v", va, vb)
	}
	if va["verified"] == 0 || va["verified"] == len(specs) {
		t.Errorf("fuzz verdicts %v: want both verified and rejected cases", va)
	}
}
