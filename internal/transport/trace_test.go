package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"dits/internal/obs"
)

// tracingHandler records one handler-side span, so propagation tests can
// assert that server work shows up in the caller's trace.
func tracingHandler(ctx context.Context, codec Codec, method string, body []byte) (any, error) {
	_, sp := obs.StartSpan(ctx, "handler.work")
	time.Sleep(time.Millisecond)
	sp.End()
	if method == "fail" {
		return nil, errors.New("boom")
	}
	out := "ok"
	return &out, nil
}

func spanNames(tr *obs.Trace) map[string]obs.Span {
	out := map[string]obs.Span{}
	for _, s := range tr.Snapshot() {
		out[s.Name] = s
	}
	return out
}

func TestTCPTracePropagation(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", tracingHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial("src", srv.Addr(), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	var resp string
	if err := p.Call(ctx, "work", nil, &resp); err != nil {
		t.Fatal(err)
	}
	spans := spanNames(tr)
	rpc, ok := spans["rpc:work"]
	if !ok {
		t.Fatalf("no rpc span; have %v", spans)
	}
	serve, ok := spans["serve:work"]
	if !ok || !serve.Remote {
		t.Fatalf("server span not merged as remote; have %v", spans)
	}
	if serve.Parent != rpc.ID {
		t.Error("server span not parented to the rpc span")
	}
	work, ok := spans["handler.work"]
	if !ok || work.Parent != serve.ID {
		t.Fatalf("handler span missing or misparented; have %v", spans)
	}
	if work.Start < rpc.Start {
		t.Error("merged span not rebased onto the rpc start")
	}

	// An error response must still carry (and merge) the span frame, and
	// the connection must stay usable afterwards.
	before := len(tr.Snapshot())
	if err := p.Call(ctx, "fail", nil, nil); err == nil {
		t.Fatal("fail call should error")
	} else if re := new(RemoteError); !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if got := len(tr.Snapshot()); got < before+3 {
		t.Errorf("error exchange recorded %d new spans, want >= 3", got-before)
	}
	if err := p.Call(ctx, "work", nil, &resp); err != nil {
		t.Fatalf("connection desynchronized after error response: %v", err)
	}
}

func TestTCPTraceUntracedRequestOnTracedConn(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", tracingHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial("src", srv.Addr(), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// No trace in the context: the trace frame ships empty and the server
	// serves untraced; nothing breaks.
	var resp string
	for i := 0; i < 3; i++ {
		if err := p.Call(context.Background(), "work", nil, &resp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPTraceServerSideRecorder(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderOptions{Capacity: 8})
	srv, err := ServeWith("127.0.0.1:0", tracingHandler, ServeConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := Dial("src", srv.Addr(), &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := obs.NewTrace()
	var resp string
	if err := p.Call(obs.WithTrace(context.Background(), tr), "work", nil, &resp); err != nil {
		t.Fatal(err)
	}
	got := rec.Lookup(tr.ID())
	if got == nil {
		t.Fatal("server recorder did not keep the trace under the caller's ID")
	}
	if got.Root != "serve:work" {
		t.Errorf("server-side root = %q", got.Root)
	}
}

func TestInProcTraceSpans(t *testing.T) {
	p := &InProc{Name: "local", Handler: tracingHandler, Metrics: &Metrics{}}
	tr := obs.NewTrace()
	var resp string
	if err := p.Call(obs.WithTrace(context.Background(), tr), "work", nil, &resp); err != nil {
		t.Fatal(err)
	}
	spans := spanNames(tr)
	rpc, ok := spans["rpc:work"]
	if !ok || rpc.Source != "local" {
		t.Fatalf("no rpc span; have %v", spans)
	}
	work, ok := spans["handler.work"]
	if !ok || work.Parent != rpc.ID || work.Remote {
		t.Fatalf("in-proc handler span wrong: %+v", work)
	}
}
