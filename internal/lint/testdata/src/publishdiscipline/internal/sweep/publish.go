// Package sweep is a publishdiscipline fixture: its path ends in
// internal/sweep, so raw publication calls outside the blessed helpers are
// flagged.
package sweep

import "os"

func rogueWrite(path string) error {
	return os.WriteFile(path, []byte("x"), 0o644) // want "direct os.WriteFile"
}

func rogueRename(a, b string) error {
	return os.Rename(a, b) // want "direct os.Rename"
}

func rogueLink(a, b string) error {
	return os.Link(a, b) // want "direct os.Link"
}

// rewrite is a blessed helper name: the audited temp+rename sequence lives
// in functions like this one.
func rewrite(tmp, path string) error {
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// create is blessed too, including its closures.
func create(tmp, path string) error {
	link := func() error { return os.Link(tmp, path) }
	return link()
}

// publish is not an audited helper name: its calls are flagged like any
// other.
func publish(tmp, path string) error {
	return os.Rename(tmp, path) // want "direct os.Rename"
}

// reads never publish: not flagged.
func reads(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func acknowledged(path string) error {
	//gatherlint:ignore publishdiscipline private scratch file, never visible to peers
	return os.WriteFile(path, nil, 0o600)
}
