package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lineWriter hands the first full line written to it (the readiness line) to
// a channel, so the test learns the bound address of a :0 listener.
type lineWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	once  sync.Once
	linec chan string
}

func newLineWriter() *lineWriter { return &lineWriter{linec: make(chan string, 1)} }

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if s := w.buf.String(); strings.Contains(s, "\n") {
		w.once.Do(func() { w.linec <- strings.SplitN(s, "\n", 2)[0] })
	}
	return len(p), nil
}

// startGatherd runs the daemon with the given extra flags on a free port and
// returns its base URL plus a shutdown func that also propagates run errors.
func startGatherd(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	out := newLineWriter()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- run(append([]string{"-addr", "127.0.0.1:0"}, extra...), out, stop) }()

	var line string
	select {
	case line = <-out.linec:
	case err := <-errc:
		t.Fatalf("gatherd exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gatherd never printed its readiness line")
	}
	const prefix = "gatherd listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("readiness line %q does not start with %q", line, prefix)
	}
	base := strings.TrimPrefix(line, prefix)
	return base, func() {
		close(stop)
		if err := <-errc; err != nil {
			t.Errorf("gatherd shutdown: %v", err)
		}
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestGatherdServesCoordinationAndObservability boots the real daemon through
// run() and checks both surfaces on the one listener: the /v1 coordination
// API and the standard /metrics + /progress observability endpoints.
func TestGatherdServesCoordinationAndObservability(t *testing.T) {
	base, shutdown := startGatherd(t)
	defer shutdown()

	if code, body := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get(t, base+"/v1/proto"); code != http.StatusOK || !strings.Contains(body, `"proto"`) {
		t.Fatalf("/v1/proto = %d %q", code, body)
	}
	if code, body := get(t, base+"/v1/status"); code != http.StatusOK || !strings.Contains(body, `"stores"`) {
		t.Fatalf("/v1/status = %d %q", code, body)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "fatgather_") {
		t.Fatalf("/metrics = %d, want the obs registry dump; got %q", code, body[:min(len(body), 200)])
	}
	if code, _ := get(t, base+"/progress"); code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
}

// TestGatherdPersistsRecordsAcrossRestart: with -dir, the record log written
// through one daemon incarnation is served by the next one — the layout is
// the sweep directory's own (<dir>/<store>/results.jsonl), so filesystem
// tools (a resume, gatherbench livelocks) understand a coordinator's data
// directory.
func TestGatherdPersistsRecordsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	line := `{"k":"v"}` + "\n"

	base, shutdown := startGatherd(t, "-dir", dir)
	resp, err := http.Post(base+"/v1/stores/smoke/records", "application/jsonl", strings.NewReader(line))
	if err != nil {
		t.Fatalf("POST records: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST records = %d", resp.StatusCode)
	}
	shutdown()

	onDisk, err := os.ReadFile(filepath.Join(dir, "smoke", "results.jsonl"))
	if err != nil || string(onDisk) != line {
		t.Fatalf("persisted log = (%q, %v), want %q", onDisk, err, line)
	}

	base2, shutdown2 := startGatherd(t, "-dir", dir)
	defer shutdown2()
	if code, body := get(t, base2+"/v1/stores/smoke/records?off=0"); code != http.StatusOK || body != line {
		t.Fatalf("records after restart = %d %q, want %q", code, body, line)
	}
}

// TestGatherdRejectsPositionalArgs pins the usage error.
func TestGatherdRejectsPositionalArgs(t *testing.T) {
	err := run([]string{"bogus"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("run with positional args = %v, want unexpected-arguments error", err)
	}
}
