package cache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestConcurrentCorruptionRecovery hammers one store from reader,
// corrupter and writer goroutines at once. The contract under attack:
// Get returns either the exact stored blob or a miss — never an error,
// never damaged bytes — while corruption lands at the file level under
// live readers. Run under -race (CI does) this also proves the drop
// accounting and file handling are data-race free.
func TestConcurrentCorruptionRecovery(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	const keys = 8
	blobs := make(map[string][]byte, keys)
	var names []string
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("%02x%s", i, key[2:])
		b := bytes.Repeat([]byte{byte(i + 1)}, 128+i)
		blobs[k] = b
		names = append(names, k)
		if err := s.Put(k, b); err != nil {
			t.Fatal(err)
		}
	}

	// Deterministic per-goroutine xorshift streams — no global rand.
	next := func(x *uint64) uint64 {
		*x ^= *x << 13
		*x ^= *x >> 7
		*x ^= *x << 17
		return *x
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 64)

	// Readers: every hit must be the exact blob.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := names[next(&seed)%keys]
				if got, ok := s.Get(k); ok && !bytes.Equal(got, blobs[k]) {
					select {
					case fail <- fmt.Sprintf("key %s: hit with damaged bytes", k):
					default:
					}
					return
				}
			}
		}(uint64(g) + 11)
	}

	// Corrupters: truncate, flip, or delete entry files under the readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := names[next(&seed)%keys]
				p, ok := s.path(k)
				if !ok {
					continue
				}
				switch next(&seed) % 3 {
				case 0:
					if fi, err := os.Stat(p); err == nil && fi.Size() > 1 {
						os.Truncate(p, fi.Size()/2)
					}
				case 1:
					if raw, err := os.ReadFile(p); err == nil && len(raw) > 0 {
						raw[next(&seed)%uint64(len(raw))] ^= 0xFF
						os.WriteFile(p, raw, 0o644)
					}
				case 2:
					os.Remove(p)
				}
			}
		}(uint64(g) + 101)
	}

	// Writers: re-Put the canonical blobs, racing the corrupters'
	// non-atomic damage with atomic replacement.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := names[next(&seed)%keys]
				if err := s.Put(k, blobs[k]); err != nil {
					select {
					case fail <- fmt.Sprintf("put %s: %v", k, err):
					default:
					}
					return
				}
			}
		}(uint64(g) + 1009)
	}

	for i := 0; i < 2000; i++ {
		k := names[uint64(i)%keys]
		if got, ok := s.Get(k); ok && !bytes.Equal(got, blobs[k]) {
			close(stop)
			wg.Wait()
			t.Fatalf("key %s: main reader saw damaged bytes", k)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// After the dust settles every key must converge back to its exact
	// blob: damaged survivors read as misses and one clean Put restores.
	for _, k := range names {
		s.Put(k, blobs[k])
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, blobs[k]) {
			t.Fatalf("key %s: did not converge after recovery", k)
		}
	}
}
