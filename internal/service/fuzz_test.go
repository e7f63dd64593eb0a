package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzHandlePoints throws arbitrary request bodies at the points endpoint and
// checks the handler's contract under garbage: it never panics, always answers
// JSON, only uses the documented status codes, keeps rejected batches atomic
// (the stored point count must not move on a non-2xx), and reports an accepted
// count consistent with the stored point count on a 2xx.
func FuzzHandlePoints(f *testing.F) {
	s := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	h := s.Handler()

	create, err := json.Marshal(CreateRequest{IntervalSeconds: 60, Start: testStart, Trees: 10})
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/series/pv", bytes.NewReader(create)))
	if rec.Code != http.StatusCreated {
		f.Fatalf("create series: %d %s", rec.Code, rec.Body)
	}

	points := func(t *testing.T) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/series/pv", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status: %d %s", rec.Code, rec.Body)
		}
		var st Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status body: %v", err)
		}
		return st.Points
	}

	f.Add([]byte(`{"points":[{"value":1},{"value":2}]}`))
	f.Add([]byte(`{"points":[{"timestamp":"2015-01-05T00:00:00Z","value":3}]}`))
	f.Add([]byte(`{"points":[{"timestamp":"1999-01-01T00:00:00Z","value":3}]}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(`{"points":[{"value":1e308},{"value":-1e308}]}`))
	f.Add([]byte(`{"points":null}`))
	f.Add([]byte(`{"points":[{"value":null}]}`))
	f.Add([]byte(`[{"value":1}]`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		before := points(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/series/pv/points", bytes.NewReader(raw)))
		switch rec.Code {
		case http.StatusOK:
			var pr PointsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 with unparseable body %q: %v", rec.Body, err)
			}
			if after := points(t); after != before+pr.Appended {
				t.Fatalf("appended=%d but stored points went %d -> %d", pr.Appended, before, after)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%d without an error body: %q", rec.Code, rec.Body)
			}
			if after := points(t); after != before {
				t.Fatalf("rejected batch partially appended: %d -> %d", before, after)
			}
		default:
			t.Fatalf("undocumented status %d: %q", rec.Code, rec.Body)
		}
	})
}

// FuzzIngestStream throws arbitrary bodies at the binary bulk-ingest
// endpoint. Under garbage the handler must never panic, must answer only
// documented statuses with a JSON summary, and must keep batches whole: the
// summary's appended count — on success and in the partial summary of a
// failed stream alike — equals the points the series actually gained.
func FuzzIngestStream(f *testing.F) {
	s := NewServer(slog.New(slog.NewTextHandler(io.Discard, nil)))
	h := s.Handler()
	series := []string{"pv", "sr"}
	create, err := json.Marshal(CreateRequest{IntervalSeconds: 60, Start: testStart, Trees: 10})
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range series {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/series/"+name, bytes.NewReader(create)))
		if rec.Code != http.StatusCreated {
			f.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	stored := func(t *testing.T) int {
		t.Helper()
		total := 0
		for _, name := range series {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/series/"+name, nil))
			var st Status
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
				t.Fatalf("status %s: %d %s", name, rec.Code, rec.Body)
			}
			total += st.Points
		}
		return total
	}

	// Seeds are framed by StreamPoints' own encoder.
	type batch struct {
		name   string
		values []float64
	}
	encode := func(batches ...batch) []byte {
		var buf bytes.Buffer
		st := &PointStream{bw: bufio.NewWriter(&buf), ids: make(map[string]uint64)}
		for _, b := range batches {
			if err := st.Send(b.name, b.values); err != nil {
				f.Fatal(err)
			}
		}
		if err := st.bw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(batch{"pv", []float64{1, 2, 3}}))
	f.Add(encode(batch{"pv", []float64{1}}, batch{"sr", []float64{0.5, 0.25}}, batch{"pv", []float64{4}}))
	f.Add(encode(batch{"pv", []float64{1, 2}}, batch{"ghost", []float64{3}}, batch{"sr", []float64{4}}))
	f.Add(encode(batch{"sr", []float64{math.NaN(), math.Inf(1), -0}}))
	f.Add(encode(batch{"pv", nil}))
	f.Add(encode())
	f.Add(append(encode(batch{"pv", []float64{1}}), 0x05, ingestOpPoints, 0x01, 0x09))

	f.Fuzz(func(t *testing.T, raw []byte) {
		before := stored(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(raw)))
		var res struct {
			errorResponse
			IngestSummary
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("%d with unparseable body %q: %v", rec.Code, rec.Body, err)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if res.Error == "" {
				t.Fatalf("%d without an error: %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("undocumented status %d: %q", rec.Code, rec.Body)
		}
		if after := stored(t); after-before != res.Appended {
			t.Fatalf("status %d reports %d appended, but the series gained %d", rec.Code, res.Appended, after-before)
		}
	})
}
