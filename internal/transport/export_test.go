package transport

// Wire constants for the external suite (package transport_test, which
// has to stay external to import transport/workloads): the scripted
// misbehaving peer of hostile_test.go names frames by these.
const (
	FrameHello     = frameHello
	FrameInitAck   = frameInitAck
	FrameDelivered = frameDelivered
	FrameStepped   = frameStepped
	FrameFinal     = frameFinal
	FrameTelemetry = frameTelemetry
)

// FrameName renders a frame type the way errors and -obsout do.
func FrameName(typ byte) string { return frameName(typ) }
