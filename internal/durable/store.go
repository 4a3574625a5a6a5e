package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"comparenb/internal/faultinject"
)

// Store is the atomic file store under one root directory. Every write
// follows the same protocol — write to a temp file in the destination
// directory, fsync it, rename it over the final name, fsync the
// directory — so a reader (including a recovering server) either sees
// the complete previous content or the complete new content, never a
// partial file. Crashes can leave stale *.tmp files behind; they are
// swept on Open and never read.
type Store struct {
	root string
}

// OpenStore opens (creating if absent) a store rooted at dir and removes
// any temp files a previous crash abandoned.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating store dir: %w", err)
	}
	s := &Store{root: dir}
	if err := s.sweepTemp(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemp removes abandoned temp files anywhere under the root.
func (s *Store) sweepTemp() error {
	return filepath.WalkDir(s.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == tmpExt {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("sweeping temp file: %w", err)
			}
		}
		return nil
	})
}

const tmpExt = ".tmp"

// WriteFile is Put plus the fingerprint the journal records for an
// artifact, so that ReadVerified can check it on every read.
func (s *Store) WriteFile(rel string, data []byte) (ArtifactMeta, error) {
	if err := s.Put(rel, data); err != nil {
		return ArtifactMeta{}, err
	}
	return Fingerprint(data), nil
}

// Put atomically writes data at the store-relative path rel, creating
// parent directories as needed. The bytes are durable — written,
// fsynced, renamed into place, directory fsynced — when Put returns nil.
func (s *Store) Put(rel string, data []byte) error {
	final, err := s.abs(rel)
	if err != nil {
		return err
	}
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	tmp := final + tmpExt
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	faultinject.Fire(faultinject.DiskWrite)
	if _, err := f.Write(data); err != nil {
		_ = f.Close()      // the write error is the one to report
		_ = os.Remove(tmp) // best-effort cleanup; sweep catches leftovers
		return fmt.Errorf("writing %s: %w", rel, err)
	}
	faultinject.Fire(faultinject.DiskFsync)
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("syncing %s: %w", rel, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("closing %s: %w", rel, err)
	}
	faultinject.Fire(faultinject.DiskRename)
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("renaming %s into place: %w", rel, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening dir for sync: %w", err)
	}
	faultinject.Fire(faultinject.DiskFsync)
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("syncing dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("closing dir %s: %w", dir, err)
	}
	return nil
}

// ReadFile reads the store-relative path rel.
func (s *Store) ReadFile(rel string) ([]byte, error) {
	abs, err := s.abs(rel)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(abs)
}

// ReadVerified reads rel and checks it against the recorded fingerprint.
// Any mismatch — wrong size, wrong hash, missing file — is an error that
// names the failed verification and rel, never the state dir's location
// (a server sends it to clients): recovery must treat the artifact as
// lost, and serving must refuse it rather than send near-right bytes.
func (s *Store) ReadVerified(rel string, meta ArtifactMeta) ([]byte, error) {
	data, err := s.ReadFile(rel)
	if err != nil {
		var pathErr *fs.PathError
		if errors.As(err, &pathErr) {
			err = pathErr.Err
		}
		return nil, fmt.Errorf("artifact %s failed verification: %w", rel, err)
	}
	if got := Fingerprint(data); got != meta {
		return nil, fmt.Errorf("artifact %s failed verification: stored %d bytes %s, journal records %d bytes %s",
			rel, got.Bytes, got.SHA256, meta.Bytes, meta.SHA256)
	}
	return data, nil
}

// Remove deletes the store-relative path rel (file or directory tree).
// A missing path is not an error: removal is used for best-effort
// cleanup of state that may never have been written.
func (s *Store) Remove(rel string) error {
	abs, err := s.abs(rel)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(abs); err != nil {
		return fmt.Errorf("removing %s: %w", rel, err)
	}
	return nil
}

// abs resolves rel under the root, refusing escapes — journal contents
// are trusted, but a corrupt record must not reach outside the state dir.
func (s *Store) abs(rel string) (string, error) {
	clean := filepath.Clean(rel)
	if clean == ".." || filepath.IsAbs(clean) || len(clean) >= 3 && clean[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("store path %q escapes the state dir", rel)
	}
	return filepath.Join(s.root, clean), nil
}

// Fingerprint computes the ArtifactMeta for data.
func Fingerprint(data []byte) ArtifactMeta {
	sum := sha256.Sum256(data)
	return ArtifactMeta{SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(data))}
}
