//go:build !linux || countnet_nommsg || !(amd64 || arm64)

package udpnet

import "net"

// Portable build variant: one datagram per syscall (loopIO, defined
// unconditionally in udpnet.go since the linux build also keeps it as
// a last-resort fallback). The pipeline above it is identical — pooled
// buffers, worker dispatch, burst-draining sender — so the only thing
// this variant gives up is the syscall amortization itself. Kept
// compiling on every platform by the `go vet -tags countnet_nommsg`
// gate in `make check` / CI, so the fallback cannot rot while linux
// hosts get the mmsg path.

// newShardIO returns the portable single-syscall implementation.
func newShardIO(conn *net.UDPConn, batch int) shardIO {
	return &loopIO{conn: conn}
}

// segSender writes bursts of request datagrams (each bufs[i] one
// datagram) on a connected client socket — the session window's
// flush primitive. The portable variant is a plain write loop; conn
// may be fault-wrapped, so nothing here assumes a real *net.UDPConn.
type segSender struct {
	conn net.Conn
}

func newSegSender(conn net.Conn) *segSender { return &segSender{conn: conn} }

func (ss *segSender) send(bufs [][]byte) error {
	for _, b := range bufs {
		if _, err := ss.conn.Write(b); err != nil {
			return err
		}
	}
	return nil
}
