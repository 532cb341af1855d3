package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"pebblesdb"
	"pebblesdb/internal/metric"
)

// DebugHandler returns the server's observability endpoint:
//
//	/metrics              Prometheus text exposition of the merged
//	                      cross-shard metrics plus server-level families
//	/debug/metrics        the same numbers; ?format=text renders the
//	                      human-readable Metrics.String report, otherwise
//	                      JSON
//	/debug/events         the per-shard flight recorders (recent background
//	                      events) as JSON
//	/debug/pprof/*        the standard runtime profiles
//
// Serve it on an operator-facing address (dbserver's -obs flag), separate
// from the data-plane listener.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleProm)
	mux.HandleFunc("/debug/metrics", s.handleDebugMetrics)
	mux.HandleFunc("/debug/events", s.handleDebugEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metric.WritePrometheus(w, &st)
}

func (s *Server) handleDebugMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "shards %d (read-only %d), conns %d active / %d total, requests %d, uptime %.1fs\n\n",
			st.Shards, st.ReadOnlyShards, st.ActiveConns, st.TotalConns, st.Requests, st.UptimeSecs)
		fmt.Fprint(w, st.Aggregate.String())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// shardEvents is one shard's flight-recorder snapshot in /debug/events.
type shardEvents struct {
	Shard  int               `json:"shard"`
	Events []pebblesdb.Event `json:"events"`
}

func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	out := make([]shardEvents, len(s.shards))
	for i, db := range s.shards {
		ev := db.RecentEvents()
		if ev == nil {
			ev = []pebblesdb.Event{}
		}
		out[i] = shardEvents{Shard: i, Events: ev}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
