package main

import (
	"net"
	"sync/atomic"
)

// wireCounter totals the bytes that cross a client's sockets in both
// directions — the paper's communication cost as the kernel sees it,
// frame headers, trace and tenant frames included.
type wireCounter struct {
	written, read atomic.Int64
}

func (w *wireCounter) total() int64 { return w.written.Load() + w.read.Load() }

// countingConn is a net.Conn that reports its traffic to a wireCounter.
type countingConn struct {
	net.Conn
	wire *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wire.read.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.written.Add(int64(n))
	return n, err
}

// dialCounted is a transport.Pool.DialFunc whose connections count into w.
func dialCounted(w *wireCounter) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, wire: w}, nil
	}
}
