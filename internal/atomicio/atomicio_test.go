package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBytes is WriteFile for content already in hand.
func writeBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := writeBytes(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := writeBytes(path, []byte("new-content")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-content" {
		t.Fatalf("content = %q, want %q", got, "new-content")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want only the target: %v", len(ents), ents)
	}
}

func TestWriteFileErrorLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := writeBytes(path, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("write exploded")
	err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survivor" {
		t.Fatalf("old content clobbered: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind after error", e.Name())
		}
	}
}

func TestWriteFileCreatesFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.bin")
	if err := writeBytes(path, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("content = %v", got)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	err := writeBytes(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"))
	if err == nil {
		t.Fatal("expected error for missing directory")
	}
}
