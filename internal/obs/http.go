package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns the telemetry endpoint map on a private mux (nothing is
// registered on http.DefaultServeMux):
//
//	/metrics       Prometheus text exposition of the Default registry
//	/progress      JSON view of the live sharded sweep (ProgressState)
//	/debug/pprof/  net/http/pprof profiles (cpu, heap, goroutine, ...)
//
// Serving layer: handlers read snapshots, which is exactly where reads are
// allowed under the one-way contract.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/progress", serveProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	Default.WritePrometheus(w)
}

// serveProgress encodes the whole document before writing, so an encoding
// failure is a 500 rather than a 200 with an empty body.
func serveProgress(w http.ResponseWriter, _ *http.Request) {
	body, err := json.MarshalIndent(ProgressSnapshot(), "", "  ")
	if err != nil {
		http.Error(w, "obs: encode /progress: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(append(body, '\n'))
}
