// Package cache is the on-disk content-addressed result store behind
// campaign execution: one file per (scenario, params, rep, seed, code
// fingerprint) cell, holding that repetition's encoded Metrics blob.
// Keys are the hex SHA-256 digests campaign.JobSpec.CacheKey derives;
// the store itself is key-agnostic — it maps opaque hex strings to
// checksummed blobs.
//
// The store is crash-safe and corruption-tolerant: writes go through a
// temp file and an atomic rename, every blob carries a CRC, and a
// mismatched or truncated entry reads as a miss (and is deleted) rather
// than an error — the engine recomputes the cell and overwrites it.
package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
)

// entryMagic tags (and versions) cache entry files.
var entryMagic = []byte("HJC1")

// Store is a directory of cached result blobs, sharded by key prefix
// (dir/ab/abcdef…) to keep directory fan-out bounded on big campaigns.
// Methods are safe for concurrent use by multiple goroutines and
// cooperating processes: visibility is per-entry via atomic renames.
type Store struct {
	dir string

	// drops counts entries discarded for corruption; concurrent readers
	// may each detect (and count) the same bad entry, so treat the total
	// as at-least-once diagnostics, not an exact census.
	drops atomic.Int64
}

// Drops reports how many entries have been discarded for corruption,
// for tests and diagnostics.
func (s *Store) Drops() int { return int(s.drops.Load()) }

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// DefaultDir is the conventional cache location: <user cache dir>/hj17.
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("cache: no user cache dir: %w", err)
	}
	return filepath.Join(base, "hj17"), nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file, rejecting anything that is not a
// plain lower-case hex digest — keys never traverse paths.
func (s *Store) path(key string) (string, bool) {
	if len(key) < 8 {
		return "", false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return filepath.Join(s.dir, key[:2], key), true
}

// Get returns the blob stored under key. Unknown keys, malformed keys,
// and corrupted entries all report a miss; corrupted entries are
// removed so the recomputed result can take their place.
func (s *Store) Get(key string) ([]byte, bool) {
	p, ok := s.path(key)
	if !ok {
		return nil, false
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	blob, err := decodeEntry(raw)
	if err != nil {
		s.drops.Add(1)
		os.Remove(p)
		return nil, false
	}
	return blob, true
}

// Put stores blob under key, atomically replacing any previous entry.
func (s *Store) Put(key string, blob []byte) error {
	p, ok := s.path(key)
	if !ok {
		return fmt.Errorf("cache: malformed key %q", key)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(encodeEntry(blob))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), p)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing %s: %w", key, werr)
	}
	return nil
}

// Len walks the store and counts entries — a test and diagnostics
// helper, not a hot path.
func (s *Store) Len() int {
	n := 0
	filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n++
		}
		return nil
	})
	return n
}

// encodeEntry frames a blob for disk: magic, CRC-32 (IEEE) of the blob,
// blob length, blob.
func encodeEntry(blob []byte) []byte {
	out := make([]byte, 0, len(entryMagic)+8+len(blob))
	out = append(out, entryMagic...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(blob))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
	return append(out, blob...)
}

func decodeEntry(raw []byte) ([]byte, error) {
	head := len(entryMagic) + 8
	if len(raw) < head || string(raw[:len(entryMagic)]) != string(entryMagic) {
		return nil, fmt.Errorf("bad entry header")
	}
	sum := binary.LittleEndian.Uint32(raw[len(entryMagic):])
	n := binary.LittleEndian.Uint32(raw[len(entryMagic)+4:])
	blob := raw[head:]
	if uint32(len(blob)) != n {
		return nil, fmt.Errorf("entry length mismatch")
	}
	if crc32.ChecksumIEEE(blob) != sum {
		return nil, fmt.Errorf("entry checksum mismatch")
	}
	return blob, nil
}
