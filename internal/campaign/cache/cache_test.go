package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const key = "ab34cdef0123456789abcdef0123456789abcdef0123456789abcdef01234567"

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	blob := []byte("the result of an expensive simulation")
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("get = %q, %v; want %q", got, ok, blob)
	}
	// Overwrite replaces.
	if err := s.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key); string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
}

func TestPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir)
	if err := s1.Put(key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	if got, ok := s2.Get(key); !ok || string(got) != "persisted" {
		t.Fatalf("reopened store: %q, %v", got, ok)
	}
}

// TestCorruptionIsAMiss: flipped bytes, truncation, and garbage files
// all read as misses (and the bad entry is dropped), never errors or
// wrong data.
func TestCorruptionIsAMiss(t *testing.T) {
	s, _ := Open(t.TempDir())
	blob := []byte("precious bytes that must not be silently damaged")
	corruptions := []func(raw []byte) []byte{
		func(raw []byte) []byte { raw[len(raw)-1] ^= 0xFF; return raw }, // payload bit flip
		func(raw []byte) []byte { raw[0] = 'X'; return raw },            // magic destroyed
		func(raw []byte) []byte { return raw[:len(raw)/2] },             // truncated
		func(raw []byte) []byte { return []byte("short") },              // replaced with junk
		func(raw []byte) []byte { return append(raw, 0xAA) },            // extra tail byte
	}
	for i, corrupt := range corruptions {
		if err := s.Put(key, blob); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(s.Dir(), key[:2], key)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); ok {
			t.Fatalf("corruption %d: returned %q as a hit", i, got)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corruption %d: bad entry not removed", i)
		}
	}
	if s.Drops() != len(corruptions) {
		t.Fatalf("drops = %d, want %d", s.Drops(), len(corruptions))
	}
}

func TestMalformedKeysRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, bad := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("Z", 64), "abcd/ef" + strings.Repeat("0", 57)} {
		if _, ok := s.Get(bad); ok {
			t.Errorf("key %q: get succeeded", bad)
		}
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("key %q: put accepted", bad)
		}
	}
}

// FuzzDecodeEntry: whatever the entry framing accepts re-encodes to the
// same bytes, so a read can only return the blob a Put framed. The
// seeds are framed blobs and the corruptions TestCorruptionIsAMiss
// applies.
func FuzzDecodeEntry(f *testing.F) {
	good := encodeEntry([]byte("precious bytes that must not be silently damaged"))
	f.Add(good)
	f.Add(encodeEntry(nil))
	f.Add(good[:len(good)/2])
	f.Add(append(bytes.Clone(good), 0xAA))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		blob, err := decodeEntry(raw)
		if err != nil {
			return
		}
		if again := encodeEntry(blob); !bytes.Equal(again, raw) {
			t.Fatalf("decoded entry re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
