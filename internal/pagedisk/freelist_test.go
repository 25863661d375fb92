package pagedisk

import (
	"sync"
	"testing"
)

// livePages counts the page frames the disk keeps reachable: every
// non-nil slot of each file's page array, up to its capacity, plus the
// free list.
func livePages(d *Disk) int {
	n := 0
	for _, fl := range d.snapshot() {
		fl.mu.RLock()
		for _, pg := range fl.pages[:cap(fl.pages)] {
			if pg != nil {
				n++
			}
		}
		fl.mu.RUnlock()
	}
	d.freeMu.Lock()
	n += len(d.free)
	d.freeMu.Unlock()
	return n
}

// TestAllocateAfterTruncateIsZeroed pins that a recycled page comes back
// zeroed even though it held data when its file was truncated.
func TestAllocateAfterTruncateIsZeroed(t *testing.T) {
	d := New()
	a := d.CreateFile("tmp-a")
	var full Page
	for i := range full {
		full[i] = 0xA5
	}
	for i := 0; i < 3; i++ {
		p, err := d.Allocate(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, p, &full); err != nil {
			t.Fatal(err)
		}
	}
	d.Truncate(a)
	if got := len(d.free); got != 3 {
		t.Fatalf("free list holds %d pages after truncate, want 3", got)
	}
	for _, f := range []FileID{d.CreateFile("tmp-b"), a} {
		p, err := d.Allocate(f)
		if err != nil {
			t.Fatal(err)
		}
		var got Page
		if err := d.Read(f, p, &got); err != nil {
			t.Fatal(err)
		}
		if got != (Page{}) {
			t.Fatalf("page allocated after truncate in file %d is not zeroed", f)
		}
	}
	if got := len(d.free); got != 1 {
		t.Fatalf("free list holds %d pages after two reuses, want 1", got)
	}
}

// TestTempChurnStaysAtPeak repeats create → write → truncate cycles of
// varying size and checks that the disk never holds more pages (files plus
// free list) than the peak of concurrently live temporary pages.
func TestTempChurnStaysAtPeak(t *testing.T) {
	d := New()
	base := d.CreateFile("base")
	if _, err := d.Allocate(base); err != nil {
		t.Fatal(err)
	}
	d.Seal(base)
	peak := 0
	var pg Page
	for cycle := 0; cycle < 50; cycle++ {
		// Two temporary files live at once, as in a query that keeps a
		// list store and a result heap.
		files := []FileID{d.CreateFile("tmp-1"), d.CreateFile("tmp-2")}
		live := 0
		for i, f := range files {
			for n := 0; n < 1+(cycle*7+i*3)%11; n++ {
				p, err := d.Allocate(f)
				if err != nil {
					t.Fatal(err)
				}
				pg[0] = byte(cycle)
				if err := d.Write(f, p, &pg); err != nil {
					t.Fatal(err)
				}
				live++
			}
		}
		if live > peak {
			peak = live
		}
		for _, f := range files {
			d.Truncate(f)
		}
		if got, limit := livePages(d), peak+1; got > limit {
			t.Fatalf("cycle %d: %d live pages, want at most %d (peak temp pages %d + 1 sealed)",
				cycle, got, limit, peak)
		}
	}
	if got := d.NumPages(base); got != 1 {
		t.Fatalf("sealed base file has %d pages, want 1", got)
	}
}

// TestSealedFilesNeverDonatePages pins the free list's safety condition:
// View hands out pointers into sealed pages for the life of the disk, so a
// sealed page must never be recycled, and truncating a sealed file is
// still a programming error.
func TestSealedFilesNeverDonatePages(t *testing.T) {
	d, f := sealedFixture(t)
	view, err := d.View(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := *view
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Truncate of a sealed file did not panic")
			}
		}()
		d.Truncate(f)
	}()
	if got := len(d.free); got != 0 {
		t.Fatalf("free list holds %d pages after a sealed truncate, want 0", got)
	}
	if got := d.NumPages(f); got != 4 {
		t.Fatalf("sealed file has %d pages after a refused truncate, want 4", got)
	}
	// Temp churn must not reuse or zero the viewed page.
	tmp := d.CreateFile("tmp")
	for i := 0; i < 8; i++ {
		if _, err := d.Allocate(tmp); err != nil {
			t.Fatal(err)
		}
		d.Truncate(tmp)
	}
	if *view != want {
		t.Fatal("a zero-copy view of a sealed page changed under temp churn")
	}
}

// TestCatalogConcurrentCreateAndIO is the lock-free catalog under -race:
// one goroutine keeps creating files while others read, view, allocate,
// write and truncate files created before it started.
func TestCatalogConcurrentCreateAndIO(t *testing.T) {
	d, sealed := sealedFixture(t)
	const workers = 4
	temps := make([]FileID, workers)
	for i := range temps {
		temps[i] = d.CreateFile("tmp")
	}
	stop := make(chan struct{})
	var creator sync.WaitGroup
	creator.Add(1)
	go func() {
		defer creator.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := d.CreateFile("new")
			if d.NumPages(f) != 0 || d.FileName(f) != "new" {
				t.Error("a just-created file is not empty or misnamed")
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tmp FileID) {
			defer wg.Done()
			var buf Page
			for i := 0; i < 300; i++ {
				if err := d.Read(sealed, PageID(i%4), &buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := d.View(sealed, PageID(i%4)); err != nil {
					t.Error(err)
					return
				}
				if !d.Sealed(sealed) || d.NumPages(sealed) != 4 {
					t.Error("sealed file changed")
					return
				}
				p, err := d.Allocate(tmp)
				if err != nil {
					t.Error(err)
					return
				}
				if err := d.Write(tmp, p, &buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Read(tmp, p, &buf); err != nil {
					t.Error(err)
					return
				}
				if d.NumFiles() < workers {
					t.Error("catalog lost files")
					return
				}
				if i%10 == 9 {
					d.Truncate(tmp)
				}
			}
		}(temps[w])
	}
	wg.Wait()
	close(stop)
	creator.Wait()
}
