package transport

import (
	"sync/atomic"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// Frame-buffer pool for the TCP reader loops and the UDP datagram
// path. Kept separate from wire's message-scale buffer pool so the two
// size classes don't pollute each other: frames and datagrams run
// larger (UDP reads want maxDatagram capacity) than encode scratch.
// Same free-list type as wire's pool, so neither get nor put allocates
// or takes a lock shared between cores, and the same single-owner
// rule: a frame is either handed on or returned, never both. It
// honors wire.SetPoolPoison for use-after-release regression tests.
const (
	frameBufCap    = 4 << 10
	maxPooledFrame = 64 << 10
)

var frameFree = wire.NewFreeList(frameBufCap, maxPooledFrame)

// bufReuse counts frame buffers served from the pool instead of the
// allocator (zht.transport.buf.reuse); nil when metrics are off.
var bufReuse atomic.Pointer[metrics.Counter]

// EnableBufMetrics points the package-global frame pool's reuse
// counter at reg (nil turns accounting off). Last registry wins.
func EnableBufMetrics(reg *metrics.Registry) {
	if reg == nil {
		bufReuse.Store(nil)
		return
	}
	bufReuse.Store(reg.Counter("zht.transport.buf.reuse"))
}

func getFrameBuf() []byte {
	b, reused := frameFree.Get()
	if reused {
		if c := bufReuse.Load(); c != nil {
			c.Inc()
		}
	}
	return b
}

func putFrameBuf(b []byte) { frameFree.Put(b) }
