package failure

import (
	"net"
	"sync"
)

// The orb wire protocol is a stream of gob messages: each message is a
// gob-encoded unsigned length followed by that many payload bytes, and
// the payload begins with a gob-encoded signed type id — negative for a
// type-descriptor message, positive for a value message. A request
// frame is two value messages (header, then argument), each preceded on
// first use by its type's descriptors. Frame duplication must respect
// those boundaries: re-sending a descriptor breaks the peer's decoder
// (duplicate type definition), so only value messages — the request
// itself — are duplicated.

// gobUint decodes gob's unsigned-integer wire form from the front of
// buf: a value < 128 is one byte; otherwise one byte holding the
// negated byte count, then that many big-endian bytes. Returns the
// value and bytes consumed; consumed == 0 means buf is too short.
func gobUint(buf []byte) (val uint64, consumed int) {
	if len(buf) == 0 {
		return 0, 0
	}
	b := buf[0]
	if b < 0x80 {
		return uint64(b), 1
	}
	n := int(-int8(b))
	if n <= 0 || n > 8 || len(buf) < 1+n {
		return 0, 0
	}
	for _, c := range buf[1 : 1+n] {
		val = val<<8 | uint64(c)
	}
	return val, 1 + n
}

// gobFramer incrementally splits a byte stream into gob messages.
type gobFramer struct {
	buf []byte
}

func (g *gobFramer) feed(p []byte) { g.buf = append(g.buf, p...) }

// next returns the raw bytes of the next complete message (length
// prefix included) and whether its payload is a value message (positive
// type id). ok is false while the buffered bytes hold no complete
// message.
func (g *gobFramer) next() (msg []byte, value bool, ok bool) {
	length, hdr := gobUint(g.buf)
	if hdr == 0 || uint64(len(g.buf)-hdr) < length {
		return nil, false, false
	}
	total := hdr + int(length)
	msg = g.buf[:total:total]
	g.buf = g.buf[total:]
	// The payload's leading signed integer is the type id; gob encodes
	// signed values with the sign in the low bit.
	id, n := gobUint(msg[hdr:])
	value = n > 0 && id&1 == 0
	return msg, value, true
}

// dupConn duplicates the first request frame written on the connection
// — its two value messages, header and argument, once their type
// descriptors have gone ahead of them — so the servant executes the
// request twice, exactly like a retransmitted request reaching a server
// whose reply to the original was lost. Both copies carry the same
// request ID: the client takes the first reply and drops the second by
// ID, and the connection carries on. Writes are reframed so the copy
// never lands inside a message.
type dupConn struct {
	net.Conn
	stats *Stats

	mu      sync.Mutex
	wf      gobFramer
	pending bool     // duplicate the next request frame written
	frame   [][]byte // its value messages seen so far
}

// Write implements net.Conn, forwarding complete messages and re-sending
// the first request frame's value messages behind it.
func (c *dupConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wf.feed(p)
	for {
		msg, value, ok := c.wf.next()
		if !ok {
			return len(p), nil
		}
		if _, err := c.Conn.Write(msg); err != nil {
			return 0, err
		}
		if !value || !c.pending {
			continue
		}
		if c.frame = append(c.frame, msg); len(c.frame) < 2 {
			continue
		}
		c.pending = false
		for _, m := range c.frame {
			if _, err := c.Conn.Write(m); err != nil {
				return 0, err
			}
		}
		c.frame = nil
		c.stats.duplicated.Add(1)
	}
}
