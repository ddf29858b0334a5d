package bench

import "testing"

// BenchmarkMicro runs every workload of the microbenchmark table, the same
// one Microbenchmarks records in BENCH_*.json, as a sub-benchmark named
// after its table entry (e.g. BenchmarkMicro/kernel/uniform). CI pins the
// iteration count with -benchtime=10x so successive runs measure identical
// work.
func BenchmarkMicro(b *testing.B) {
	for _, m := range microTable(false) {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.run(int64(i + 1))
			}
		})
	}
}
