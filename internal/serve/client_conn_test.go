package serve_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"manualhijack/internal/identity"
	"manualhijack/internal/serve"
)

// TestClientReusesConnection checks that a Client keeps one connection
// for a run of Score and Outcome calls: each reply is read to EOF, so
// net/http returns the connection to the pool instead of dialing again.
// 50 pairs open one connection.
func TestClientReusesConnection(t *testing.T) {
	const seed, pop = 7, 64
	dir, plan, _ := testWorld(seed, pop, 0)
	e := serve.New(dir, plan, serve.DefaultConfig(seed))
	e.Prime()
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(serve.NewServer(e, serve.ServerConfig{}).Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := &serve.Client{Base: ts.URL, HTTP: &http.Client{Transport: tr}}

	at := time.Date(2012, 11, 2, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		acct := dir.Get(identity.AccountID(i%pop + 1))
		req := serve.ScoreRequest{Account: acct.ID, IP: "203.0.113.7", DeviceID: "dev-1", At: at, PasswordOK: true}
		if _, err := c.Score(req); err != nil {
			t.Fatal(err)
		}
		if err := c.Outcome(serve.OutcomeRequest{Account: acct.ID, IP: req.IP, DeviceID: req.DeviceID, At: at, Success: true}); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Minute)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("50 Score+Outcome pairs opened %d connections, want 1", n)
	}
}
