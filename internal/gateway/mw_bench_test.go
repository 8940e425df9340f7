package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"dits/internal/geo"
	"dits/internal/obs"
)

func BenchmarkTracedMiddleware(b *testing.B) {
	g := &Gateway{rec: obs.NewRecorder(obs.RecorderOptions{})}
	h := g.traced("http.overlap", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sp := obs.StartSpan(r.Context(), "admission.wait")
		sp.End()
		_, sp = obs.StartSpan(r.Context(), "cache.probe")
		sp.End()
		w.WriteHeader(200)
	}))
	req := httptest.NewRequest("POST", "/search/overlap", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
	}
}

// BenchmarkDecodeQuery decodes a 1,000-point search body: the decoder the
// gateway serves with, and beside it the encoding/json path it replaced.
// Lattice coordinates convert with one float division, random 17-digit
// ones with a 128-bit integer division.
func BenchmarkDecodeQuery(b *testing.B) {
	grid := testGrid()
	for _, coords := range []string{"lattice", "random"} {
		body := pointsBody(1000, coords == "random")
		for _, bc := range []struct {
			name   string
			decode func(geo.Grid, []byte) (query, error)
		}{{"decoder", decodeSearch}, {"encoding-json", oracleSearch}} {
			b.Run(coords+"/"+bc.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bc.decode(grid, body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
