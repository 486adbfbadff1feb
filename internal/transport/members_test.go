package transport

import (
	"context"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/group"
)

// echoHandler replies with the request payload under FrameContrib.
type echoHandler struct{}

func (echoHandler) Handle(msgType byte, payload []byte) (byte, []byte, error) {
	return core.FrameContrib, payload, nil
}

// panicHandler crashes while serving — the server must survive it.
type panicHandler struct{}

func (panicHandler) Handle(msgType byte, payload []byte) (byte, []byte, error) {
	panic("handler crash")
}

func TestMemberServerRoundTrip(t *testing.T) {
	srv := NewMemberServer(echoHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	link := group.DialMember(addr.String())
	defer link.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := []byte("hello group")
	if err := link.Send(ctx, core.FrameContribReq, want); err != nil {
		t.Fatal(err)
	}
	typ, got, err := link.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if typ != core.FrameContrib || string(got) != string(want) {
		t.Fatalf("got frame %d %q, want %d %q", typ, got, core.FrameContrib, want)
	}
}

func TestMemberServerSurvivesHandlerPanic(t *testing.T) {
	srv := NewMemberServer(panicHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The panicking connection dies; the server must keep accepting.
	for i := 0; i < 3; i++ {
		link := group.DialMember(addr.String())
		if err := link.Send(ctx, core.FrameContribReq, []byte("x")); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if _, _, err := link.Recv(ctx); err == nil {
			t.Fatalf("dial %d: got a reply from a panicking handler", i)
		}
		link.Close()
	}
}

func TestMemberServerServesRealMember(t *testing.T) {
	m := group.NewMember(geo.Point{X: 0.5, Y: 0.5}, nil, nil)
	srv := NewMemberServer(m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	link := group.DialMember(addr.String())
	defer link.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := &core.ContribRequest{Session: 7, Round: 0, Slot: 1, Pos: 2, SetSize: 6, Space: geo.UnitRect}
	if err := link.Send(ctx, core.FrameContribReq, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := link.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if typ != core.FrameContrib {
		t.Fatalf("frame type %d (%s), want contribution", typ, payload)
	}
	cm, err := core.UnmarshalContribution(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Validate(req); err != nil {
		t.Fatal(err)
	}
	if cm.Set[2] != (geo.Point{X: 0.5, Y: 0.5}) {
		t.Fatalf("real location not at requested position: %v", cm.Set)
	}
}
