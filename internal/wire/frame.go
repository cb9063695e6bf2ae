// Package wire is the transport-agnostic substrate under the
// distributed deployments: the canonical binary frame codec shared by
// the TCP (internal/tcpnet) and UDP (internal/udpnet) transports, the
// datagram packing layer, the bounded per-client dedup tables that make
// retried mutating frames exactly-once, the rewindable sequence tape
// client retries draw their numbers from, and the jittered-exponential
// backoff / retry-budget types both transports pace their recoveries
// with.
//
// The frame protocol itself is documented where it is served (the
// tcpnet package comment); this package owns only the mechanics every
// transport needs to agree on: op codes, canonical encode/decode
// (FuzzFrameCodec holds the codec to re-encoding any well-formed stream
// bit for bit), and the exactly-once bookkeeping.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
)

// Protocol op codes. Ops 1-5 are the v1 stateless frames kept decodable
// for old clients; ops 6-10 are the v2 exactly-once frames: HELLO binds
// a connection (or datagram) to a client id, and every v2 mutating
// frame carries a monotone per-client sequence number the serving shard
// dedups on. The op byte IS the version marker — the codec
// distinguishes v1 from v2 frames without connection state.
const (
	OpStep  byte = 1
	OpCell  byte = 2
	OpStepN byte = 3
	OpCellN byte = 4
	OpRead  byte = 5

	OpHello  byte = 6
	OpStep2  byte = 7
	OpCell2  byte = 8
	OpStepN2 byte = 9
	OpCellN2 byte = 10
)

// MaxFrameLen is the longest request frame: op(1) id(4) seq(8) count(8).
const MaxFrameLen = 21

// Frame is one decoded request frame. Fields beyond Op and ID are
// populated per op: Client for HELLO, Seq for the v2 mutating ops, N
// for the batched ops of either version.
type Frame struct {
	Op     byte
	ID     int32
	Client uint64
	Seq    uint64
	N      int64
}

// ErrUnknownOp reports an op byte outside the protocol; it is returned
// before any payload byte is consumed.
var ErrUnknownOp = errors.New("wire: unknown op")

// frameExtra returns the payload length following the 5-byte op+id
// header, or -1 for an unknown op.
func frameExtra(op byte) int {
	switch op {
	case OpStep, OpCell, OpRead:
		return 0
	case OpHello, OpStep2, OpCell2, OpStepN, OpCellN:
		return 8
	case OpStepN2, OpCellN2:
		return 16
	}
	return -1
}

// FrameLen returns the encoded length of a frame with the given op, or
// -1 for an unknown op — what a datagram packer needs to budget packets
// without encoding twice.
func FrameLen(op byte) int {
	extra := frameExtra(op)
	if extra < 0 {
		return -1
	}
	return 5 + extra
}

// AppendFrame encodes f onto dst. The encoding is canonical: decoding
// and re-encoding any well-formed byte stream reproduces it exactly
// (FuzzFrameCodec holds the codec to this).
func AppendFrame(dst []byte, f *Frame) []byte {
	var b [MaxFrameLen]byte
	b[0] = f.Op
	binary.BigEndian.PutUint32(b[1:5], uint32(f.ID))
	switch f.Op {
	case OpHello:
		binary.BigEndian.PutUint64(b[5:13], f.Client)
	case OpStep2, OpCell2:
		binary.BigEndian.PutUint64(b[5:13], f.Seq)
	case OpStepN, OpCellN:
		binary.BigEndian.PutUint64(b[5:13], uint64(f.N))
	case OpStepN2, OpCellN2:
		binary.BigEndian.PutUint64(b[5:13], f.Seq)
		binary.BigEndian.PutUint64(b[13:21], uint64(f.N))
	}
	return append(dst, b[:5+frameExtra(f.Op)]...)
}

// ReadFrame decodes one request frame from r into f, using buf as the
// read scratch. An unknown op is reported before any payload byte is
// consumed.
func ReadFrame(r io.Reader, buf *[MaxFrameLen]byte, f *Frame) error {
	if _, err := io.ReadFull(r, buf[:5]); err != nil {
		return err
	}
	f.Op = buf[0]
	f.ID = int32(binary.BigEndian.Uint32(buf[1:5]))
	f.Client, f.Seq, f.N = 0, 0, 0
	extra := frameExtra(f.Op)
	if extra < 0 {
		return ErrUnknownOp
	}
	if extra > 0 {
		if _, err := io.ReadFull(r, buf[5:5+extra]); err != nil {
			return err
		}
	}
	switch f.Op {
	case OpHello:
		f.Client = binary.BigEndian.Uint64(buf[5:13])
	case OpStep2, OpCell2:
		f.Seq = binary.BigEndian.Uint64(buf[5:13])
	case OpStepN, OpCellN:
		f.N = int64(binary.BigEndian.Uint64(buf[5:13]))
	case OpStepN2, OpCellN2:
		f.Seq = binary.BigEndian.Uint64(buf[5:13])
		f.N = int64(binary.BigEndian.Uint64(buf[13:21]))
	}
	return nil
}

// DecodeFrame decodes one frame from the front of data into f and
// returns the encoded length consumed. It is the allocation-free
// sibling of ReadFrame for callers that already hold the whole
// encoding in memory (the datagram path): no reader, no escaping
// scratch — the UDP shard's per-packet decode must not touch the heap.
func DecodeFrame(data []byte, f *Frame) (int, error) {
	if len(data) < 5 {
		return 0, io.ErrUnexpectedEOF
	}
	f.Op = data[0]
	f.ID = int32(binary.BigEndian.Uint32(data[1:5]))
	f.Client, f.Seq, f.N = 0, 0, 0
	extra := frameExtra(f.Op)
	if extra < 0 {
		return 0, ErrUnknownOp
	}
	if len(data) < 5+extra {
		return 0, io.ErrUnexpectedEOF
	}
	switch f.Op {
	case OpHello:
		f.Client = binary.BigEndian.Uint64(data[5:13])
	case OpStep2, OpCell2:
		f.Seq = binary.BigEndian.Uint64(data[5:13])
	case OpStepN, OpCellN:
		f.N = int64(binary.BigEndian.Uint64(data[5:13]))
	case OpStepN2, OpCellN2:
		f.Seq = binary.BigEndian.Uint64(data[5:13])
		f.N = int64(binary.BigEndian.Uint64(data[13:21]))
	}
	return 5 + extra, nil
}

// V2Op maps a v1 mutating op to its seq-numbered v2 form.
func V2Op(op byte) byte {
	switch op {
	case OpStep:
		return OpStep2
	case OpCell:
		return OpCell2
	case OpStepN:
		return OpStepN2
	case OpCellN:
		return OpCellN2
	}
	return op
}

// clientIDs hands out process-unique client ids from a random base, so
// clients from different processes sharing one shard fleet are unlikely
// to collide on a dedup window.
var clientIDs atomic.Uint64

func init() { clientIDs.Store(rand.Uint64()) }

// NextClientID returns a fresh process-unique client id.
func NextClientID() uint64 { return clientIDs.Add(1) }

// SeqTape draws monotone sequence numbers from a counter shared across a
// client's flights and records them in issue order, so a rewound retry
// re-sends the IDENTICAL sequence number on the identical frame. Frame i
// of attempt 2 is frame i of attempt 1 because the walk is
// deterministic: batches replay the topology, and single-token walks are
// steered by replies that the shards' dedup windows replay verbatim for
// already-applied sequences.
type SeqTape struct {
	src  *atomic.Uint64
	used []uint64
	next int
}

// seqTapeKeep caps the capacity (8 KiB) a Reset tape holds on to: an
// outlier flight's array is dropped, not pinned by whoever recycles it.
const seqTapeKeep = 1024

// NewSeqTape starts an empty tape drawing fresh numbers from src.
func NewSeqTape(src *atomic.Uint64) *SeqTape { return &SeqTape{src: src} }

// Take returns the next sequence number: a recorded one while replaying
// after Rewind, a fresh one from the source past the recorded end.
func (tp *SeqTape) Take() uint64 {
	if tp.next < len(tp.used) {
		v := tp.used[tp.next]
		tp.next++
		return v
	}
	v := tp.src.Add(1)
	tp.used = append(tp.used, v)
	tp.next = len(tp.used)
	return v
}

// Rewind restarts the tape for a retry attempt: the next Take replays
// the recorded numbers from the first.
func (tp *SeqTape) Rewind() { tp.next = 0 }

// Reset empties the tape for its next flight — every Take after it
// draws a fresh number — keeping the recorded slice's capacity so a
// recycled tape records without allocating.
func (tp *SeqTape) Reset() {
	tp.next, tp.used = 0, tp.used[:0]
	if cap(tp.used) > seqTapeKeep {
		tp.used = nil
	}
}
