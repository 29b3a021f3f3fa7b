package cluster

import (
	"errors"
	"testing"
	"time"
)

// The middleware layer: decorators must compose over any transport and
// stay transparent to traffic they don't alter.

func TestMiddlewarePassThrough(t *testing.T) {
	inner := NewChanTransport(2)
	mw := Middleware{Inner: inner}
	defer mw.Close()
	if err := mw.Send(1, Message{Src: 0, Tag: 7, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	m, err := mw.Recv(1, Match{Comm: AnyComm, Src: AnySrc, Tag: 7}, 0)
	if err != nil || string(m.Payload) != "x" {
		t.Fatalf("Recv = (%v, %v)", m, err)
	}
	if _, err := mw.Recv(1, MatchAny(), 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv with a timeout on an empty mailbox: %v", err)
	}
}

func TestLatencyDecoratorOverTCP(t *testing.T) {
	base, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewLatency(base, 20*time.Millisecond)
	defer tr.Close()
	start := time.Now()
	if err := tr.Send(1, Message{Src: 0, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("latency not applied over TCP: send took %v", elapsed)
	}
	if _, err := tr.Recv(1, Match{Comm: AnyComm, Src: AnySrc, Tag: 1}, 0); err != nil {
		t.Fatal(err)
	}
}
