package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, i*7+1)
		want[k] = v
		if err := w.Append(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, n, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 || len(got) != 20 {
		t.Fatalf("replayed %d records, %d keys; want 20, 20", n, len(got))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %s: %v != %v", k, got[k], v)
		}
	}
}

// TestResumedAppendsAccumulate: a journal reopened for appending keeps
// its old records, and duplicate keys resolve to the latest blob.
func TestResumedAppendsAccumulate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w1, _ := Create(path)
	w1.Append("a", []byte("v1"))
	w1.Append("b", []byte("b1"))
	w1.Close()
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append("a", []byte("v2"))
	w2.Append("c", []byte("c1"))
	w2.Close()
	got, n, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(got) != 3 {
		t.Fatalf("records %d keys %d, want 4 records 3 keys", n, len(got))
	}
	if string(got["a"]) != "v2" {
		t.Fatalf("a = %q, want latest write", got["a"])
	}
}

// TestTruncatedTailKeepsPrefix: a crash mid-append damages only the
// last record; replay returns everything before it.
func TestTruncatedTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, _ := Create(path)
	w.Append("complete-1", []byte("aaaa"))
	w.Append("complete-2", []byte("bbbb"))
	w.Append("doomed", bytes.Repeat([]byte("x"), 100))
	w.Close()
	raw, _ := os.ReadFile(path)
	for _, cut := range []int{1, 40, 90} { // chop into the last record
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, n, err := Replay(path)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2 || len(got) != 2 {
			t.Fatalf("cut %d: kept %d records, want 2", cut, n)
		}
		if string(got["complete-2"]) != "bbbb" {
			t.Fatalf("cut %d: prefix damaged", cut)
		}
	}
	// A corrupted byte mid-stream also ends replay at the damage point
	// instead of returning garbage.
	bad := append([]byte{}, raw...)
	bad[len(bad)-50] ^= 0xFF
	os.WriteFile(path, bad, 0o644)
	got, _, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if k == "doomed" && !bytes.Equal(v, bytes.Repeat([]byte("x"), 100)) {
			t.Fatal("corrupted record surfaced with wrong bytes")
		}
	}
}

// TestResumeAfterTornTail: a journal reopened after a crash tore its
// last record keeps the valid prefix, and the records appended by the
// resumed run replay too — they must not land behind the damaged bytes.
func TestResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w1, _ := Create(path)
	w1.Append("a", []byte("a1"))
	w1.Append("b", []byte("b1"))
	w1.Close()
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(fmt.Sprintf("c%d", round), []byte("c")); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(fmt.Sprintf("d%d", round), []byte("d")); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	got, n, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "c0", "d0", "c1", "d1"} {
		if _, ok := got[k]; !ok {
			t.Errorf("record %q lost (replayed %d records: %v)", k, n, got)
		}
	}
	if n != 5 || len(got) != 5 {
		t.Fatalf("replayed %d records, %d keys; want 5, 5", n, len(got))
	}
}

func TestReplayMissingFileErrors(t *testing.T) {
	if _, _, err := Replay(filepath.Join(t.TempDir(), "nope.journal")); err == nil {
		t.Fatal("missing journal accepted")
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	w, _ := Create(path)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 25; i++ {
				if e := w.Append(fmt.Sprintf("g%d-%d", g, i), []byte{byte(g), byte(i)}); e != nil {
					err = e
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	got, n, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 || len(got) != 200 {
		t.Fatalf("records %d keys %d, want 200", n, len(got))
	}
}
