package pagedisk

import "testing"

// BenchmarkAllocateTruncate is the temporary-file churn of a query
// stream: each iteration creates a temp file, allocates and writes 64
// pages into it and truncates it, as every query does with its list store.
// Recycled pages keep steady-state allocations per iteration to the file
// itself.
func BenchmarkAllocateTruncate(b *testing.B) {
	d := New()
	var pg Page
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := d.CreateFile("tmp")
		for n := 0; n < 64; n++ {
			p, err := d.Allocate(f)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Write(f, p, &pg); err != nil {
				b.Fatal(err)
			}
		}
		d.Truncate(f)
	}
}
