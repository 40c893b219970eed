package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"slices"
)

// The data plane's frame: u32 len | kind | i64 routing epoch | payload |
// crc32c. len counts kind, epoch and payload; the CRC (Castagnoli)
// covers the same bytes. Integers are little-endian. A request's kind
// is its op code, a reply's its status; a reply echoes its request's
// epoch. maxBody bounds len.
const (
	frameHeader  = 4 + 1 + 8
	frameTrailer = 4
)

// streamProto is the Upgrade token that switches a worker connection
// from HTTP to frames.
const streamProto = "met-frames"

// Op codes: a request frame's kind.
const (
	opGet byte = iota + 1
	opPut
	opDelete
	opScan
	numOps
)

// opRoutes names each op in the request log and in the
// rpc_op_latency_seconds histograms, whose op labels dashboards and the
// bench's handler-mean scrape read.
var opRoutes = [numOps]string{
	opGet:    "/node/get",
	opPut:    "/node/put",
	opDelete: "/node/delete",
	opScan:   "/node/scan",
}

// Statuses: a reply frame's kind. Every status but statusOK carries the
// error text as its payload.
const (
	statusOK byte = iota
	statusNotFound
	statusReroute // stale epoch or wrong region: re-fetch the layout
	statusStopped
	statusBadRequest
	statusInternal
	numStatuses
)

var statusNames = [numStatuses]string{
	statusOK:         "ok",
	statusNotFound:   "not-found",
	statusReroute:    "reroute",
	statusStopped:    "stopped",
	statusBadRequest: "bad-request",
	statusInternal:   "internal",
}

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	errFrameLength = errors.New("rpc: frame length out of bounds")
	errFrameCRC    = errors.New("rpc: frame checksum mismatch")
)

// beginFrame starts a frame in b, reusing its storage: the header with
// the length left open. The payload is appended after it; writeFrame
// closes the frame.
func beginFrame(b []byte, kind byte, epoch int64) []byte {
	b = append(b[:0], 0, 0, 0, 0, kind)
	return binary.LittleEndian.AppendUint64(b, uint64(epoch))
}

// sealFrame fills in the length of the frame begun in b and appends its
// CRC.
func sealFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], crcTable))
}

// writeFrame seals the frame begun in b and writes it in one call.
func writeFrame(w io.Writer, b []byte) ([]byte, error) {
	b = sealFrame(b)
	_, err := w.Write(b)
	return b, err
}

// frame is one decoded frame. payload aliases the buffer it was read
// into and is valid until the next read into that buffer.
type frame struct {
	kind    byte
	epoch   int64
	payload []byte
}

// readFrame reads one frame from r into buf, growing it as needed, and
// returns the frame and the buffer for the next read. A length out of
// bounds is refused before anything is allocated for it, and the
// buffer grows only as the frame's bytes arrive; a CRC mismatch is an
// error. Either error leaves the stream unusable.
func readFrame(r *bufio.Reader, buf []byte) (frame, []byte, error) {
	var f frame
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return f, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n < frameHeader-4 || n > maxBody {
		return f, buf, fmt.Errorf("%w: %d", errFrameLength, n)
	}
	total := int(n) + frameTrailer
	b := buf[:0]
	for len(b) < total {
		if len(b) == cap(b) {
			// Grow as the bytes arrive, doubling: a length word alone
			// cannot make this side allocate the whole bound.
			b = slices.Grow(b, min(total-len(b), max(cap(b), 4<<10)))
		}
		end := min(cap(b), total)
		if _, err := io.ReadFull(r, b[len(b):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return f, b, err
		}
		b = b[:end]
	}
	buf = b
	body := b[:n]
	if binary.LittleEndian.Uint32(b[n:]) != crc32.Checksum(body, crcTable) {
		return f, buf, errFrameCRC
	}
	f.kind = body[0]
	f.epoch = int64(binary.LittleEndian.Uint64(body[1:9]))
	f.payload = body[9:]
	return f, buf, nil
}

// dialStream opens a frame stream to the worker at addr: a TCP
// connection, an HTTP Upgrade to streamProto on the worker's listener,
// and a 101 reply. Any other reply is an error carrying its status and
// body. ctx bounds the whole exchange.
func dialStream(ctx context.Context, addr string) (*conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(dl)
	}
	req := "GET /node/stream HTTP/1.1\r\nHost: " + addr +
		"\r\nConnection: Upgrade\r\nUpgrade: " + streamProto + "\r\n\r\n"
	br := bufio.NewReader(nc)
	if _, err := io.WriteString(nc, req); err != nil {
		nc.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		nc.Close()
		return nil, fmt.Errorf("upgrade to %s: %s: %s", streamProto, resp.Status, body)
	}
	return &conn{addr: addr, nc: nc, br: br}, nil
}
