package cht

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
)

// benchSetup builds the standard 3-process eventual-Ω scenario, the same one
// internal/bench's cht microbenchmarks use.
func benchSetup() (*model.FailurePattern, fd.Detector) {
	fp := model.NewFailurePattern(3)
	det := fd.NewOmegaEventual(fp, 2, 35)
	return fp, det
}

// BenchmarkTreeFresh is the non-incremental baseline for the incremental
// tree growth microbenchmark (cht/tree-growth in internal/bench): a fresh
// exploration per prefix, the pre-overhaul behavior.
func BenchmarkTreeFresh(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 1; m <= g.Len(); m++ {
			ex := NewExplorer(NewEC4(1), fp.N(), g.Prefix(m), nil, 0)
			if err := ex.Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtractEC measures one-shot §4 extraction (build + tag + gadget
// search) on a fresh engine.
func BenchmarkExtractEC(b *testing.B) {
	fp, det := benchSetup()
	g := BuildDAG(fp, det, BuildOptions{SamplesPerProcess: 3, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractEC(NewEC4(1), fp.N(), g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
