package transport

import "net"

// Wire constants for the external suite (package transport_test, which
// has to stay external to import transport/workloads): the scripted
// misbehaving peers of hostile_test.go name frames by these.
const (
	FrameHello     = frameHello
	FramePeer      = framePeer
	FrameInitAck   = frameInitAck
	FrameRound     = frameRound
	FrameSends     = frameSends
	FrameReport    = frameReport
	FrameFinal     = frameFinal
	FrameTelemetry = frameTelemetry
)

// FrameName renders a frame type the way errors and -obsout do.
func FrameName(typ byte) string { return frameName(typ) }

// SetPeerConnHook makes f the wrapper of every peer connection a shard
// opens, until restore is called once the runs using it are over.
func SetPeerConnHook(f func(shard int, conn net.Conn) net.Conn) (restore func()) {
	old := peerConnHook
	peerConnHook = f
	return func() { peerConnHook = old }
}

// ShippedDumps runs spec like t.Run and reports, per shard, whether the
// TELEMETRY the coordinator took from it carried a flight dump.
func ShippedDumps(t TCP, spec Spec) ([]bool, error) {
	c, err := t.newCoordinator(spec, Options{})
	if err != nil {
		return nil, err
	}
	_, err = c.run()
	shipped := make([]bool, len(c.shardTel))
	for i, wt := range c.shardTel {
		shipped[i] = wt != nil && wt.Dump != nil
	}
	return shipped, err
}
