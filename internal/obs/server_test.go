package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestServerCloseJoinsServe pins the monitor teardown fix: Close must not
// return until the background Serve goroutine has exited, so closing the
// monitor never strands a goroutine into a promoted standby's lifetime.
func TestServerCloseJoinsServe(t *testing.T) {
	s := NewServer(ServerConfig{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Fatal("no bound address after Start")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
		// Serve goroutine is gone, as Close promised.
	default:
		t.Fatal("Close returned while the Serve goroutine was still running")
	}
}

// TestInstanceWithoutIDAnswersJSON: /api/instances/ with no ID is a bad
// request answered in JSON, like every other /api error.
func TestInstanceWithoutIDAnswersJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	NewServer(ServerConfig{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/instances/", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("body %q is not {\"error\": …}: %v", rec.Body.String(), err)
	}
}
