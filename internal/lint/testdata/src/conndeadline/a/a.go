// Package a is a conndeadline fixture shaped like the transport layer:
// a connection-shaped type (structural detection — no package net
// needed), raw reads and writes, io transfer helpers, and frame-style
// helpers that do I/O on a reader parameter.
package a

import (
	"io"
	"time"
)

type conn struct{}

func (conn) Read(p []byte) (int, error)         { return 0, nil }
func (conn) Write(p []byte) (int, error)        { return 0, nil }
func (conn) Close() error                       { return nil }
func (conn) SetDeadline(t time.Time) error      { return nil }
func (conn) SetReadDeadline(t time.Time) error  { return nil }
func (conn) SetWriteDeadline(t time.Time) error { return nil }

// guarded: every raw operation is dominated by a deadline on the same
// conn.
func guarded(c conn) error {
	if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	if _, err := c.Write(nil); err != nil {
		return err
	}
	_, err := c.Read(make([]byte, 8))
	return err
}

// unguardedLocal reads a local conn with no deadline anywhere.
func unguardedLocal() {
	var c conn
	c.Read(nil) // want `no dominating deadline`
}

// deadlineAfter arms the deadline too late: domination is positional.
func deadlineAfter() {
	var c conn
	c.Write(nil) // want `no dominating deadline`
	c.SetWriteDeadline(time.Time{})
}

// readFrameLike does raw I/O on its reader parameter. Not reported
// here — the caller that supplies a conn owns the deadline decision —
// but the fact propagates.
func readFrameLike(r io.Reader) ([]byte, error) {
	buf := make([]byte, 16)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// callerGuarded arms the deadline before handing the conn to the
// frame helper: the propagated site is dominated.
func callerGuarded(c conn) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	readFrameLike(c)
}

// callerUnguarded hands an undeadlined conn to the frame helper: the
// helper's unsafe-parameter fact surfaces here.
func callerUnguarded() {
	var c conn
	readFrameLike(c) // want `readFrameLike → io.ReadFull`
}

// selfGuarded arms its own deadline, so callers owe nothing.
func selfGuarded(c conn) error {
	if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return err
	}
	_, err := c.Write(nil)
	return err
}

func callsSelfGuarded() {
	var c conn
	selfGuarded(c) // ok: the callee arms its own deadline
}

// allowed pins the suppression escape hatch.
func allowed() {
	var c conn
	//dhslint:allow conndeadline(fixture: lifetime bounded by the test harness)
	c.Read(nil)
}
