package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
)

// ExecutableFingerprint is the code identity the result cache keys on
// when a Plan names none: the hex SHA-256 of the running executable's
// bytes, hashed once per process. It measures the code that runs
// instead of trusting what a build says about itself, so any edit that
// changes the binary changes every cell key — go run and test binaries
// included — while rebuilding an unchanged tree keeps them.
func ExecutableFingerprint() (string, error) { return executableHash() }

var executableHash = sync.OnceValues(func() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("campaign: code fingerprint: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("campaign: code fingerprint: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("campaign: code fingerprint: hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})
