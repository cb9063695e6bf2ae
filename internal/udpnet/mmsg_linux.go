//go:build linux && (amd64 || arm64) && !countnet_nommsg

package udpnet

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// Batched-syscall shardIO: recvmmsg/sendmmsg move whole bursts of
// datagrams per kernel crossing, which is where a busy UDP shard's
// cycles actually go — the per-packet work (decode, fetch-add, encode)
// is tens of nanoseconds while a syscall is microseconds. The syscall
// numbers are ABI-stable per arch and pinned in mmsg_sysnum_*.go, so
// no new dependency is needed; the raw structures below
// mirror <linux/socket.h>'s struct mmsghdr for the two 64-bit arches
// this file builds on (the tag keeps 32-bit layouts out). Blocking is
// delegated to the runtime netpoller through RawConn.Read/Write: the
// callback returns false on EAGAIN and the goroutine parks instead of
// spinning. Build with -tags countnet_nommsg to force the portable
// fallback on linux (both variants are vetted by `make check`).

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-reported
// byte count for that slot. 56-byte Msghdr + uint32 + explicit pad
// keeps the 64-byte stride the kernel walks.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

type mmsgIO struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	batch int

	// Receive-side scratch, one slot per burst position. rbufs keeps
	// ownership of pooled buffers between calls: a slot's buffer is
	// handed to the pipeline only when a datagram actually landed in it.
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames []syscall.RawSockaddrInet6
	rbufs  []*[shardBufSize]byte

	// Send-side scratch.
	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames []syscall.RawSockaddrInet6

	// The RawConn callbacks are bound ONCE here and communicate through
	// the fields below — a closure literal at the call site would
	// escape and cost a heap allocation per syscall, which is exactly
	// the per-packet overhead this file exists to amortize away. Safe
	// because one goroutine owns each direction (the shard's reader and
	// sender respectively).
	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	rn      int // burst size for readFn
	rgot    int
	rerrno  syscall.Errno
	wn      int // burst size for writeFn
	wsent   int
	werrno  syscall.Errno
}

// newShardIO returns the recvmmsg/sendmmsg implementation, falling
// back to the portable loop if the raw descriptor is unavailable.
func newShardIO(conn *net.UDPConn, batch int) shardIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return &loopIO{conn: conn}
	}
	io := &mmsgIO{
		conn:   conn,
		rc:     rc,
		batch:  batch,
		rhdrs:  make([]mmsghdr, batch),
		riovs:  make([]syscall.Iovec, batch),
		rnames: make([]syscall.RawSockaddrInet6, batch),
		rbufs:  make([]*[shardBufSize]byte, batch),
		whdrs:  make([]mmsghdr, batch),
		wiovs:  make([]syscall.Iovec, batch),
		wnames: make([]syscall.RawSockaddrInet6, batch),
	}
	io.readFn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&io.rhdrs[0])), uintptr(io.rn),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the netpoller until readable
		}
		io.rgot, io.rerrno = int(r), e
		return true
	}
	io.writeFn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&io.whdrs[0])), uintptr(io.wn),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false // park until writable
		}
		if e != 0 {
			io.wsent, io.werrno = 0, e
			return true
		}
		io.wsent, io.werrno = int(r), 0
		return true
	}
	return io
}

func (io *mmsgIO) readBatch(dst []pkt, pool *bufPool) (int, error) {
	n := min(len(dst), io.batch)
	for i := 0; i < n; i++ {
		if io.rbufs[i] == nil {
			io.rbufs[i] = pool.get()
		}
		io.riovs[i] = syscall.Iovec{Base: &io.rbufs[i][0], Len: shardBufSize}
		io.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&io.rnames[i])),
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &io.riovs[i],
			Iovlen:  1,
		}}
	}
	io.rn = n
	err := io.rc.Read(io.readFn)
	if err != nil {
		return 0, err
	}
	if io.rerrno != 0 {
		return 0, io.rerrno
	}
	got := io.rgot
	for i := 0; i < got; i++ {
		ln := int(io.rhdrs[i].len)
		if io.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			ln = -1 // poisoned: the dispatcher drops truncated packets
		}
		dst[i] = pkt{buf: io.rbufs[i], n: ln, ap: sockaddrToAddrPort(&io.rnames[i])}
		io.rbufs[i] = nil
	}
	return got, nil
}

func (io *mmsgIO) writeBatch(ps []pkt) error {
	for off := 0; off < len(ps); {
		n := min(len(ps)-off, io.batch)
		for i := 0; i < n; i++ {
			p := &ps[off+i]
			io.wiovs[i] = syscall.Iovec{Base: &p.buf[0], Len: uint64(p.n)}
			nl := addrPortToSockaddr(&io.wnames[i], p.ap)
			io.whdrs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&io.wnames[i])),
				Namelen: nl,
				Iov:     &io.wiovs[i],
				Iovlen:  1,
			}}
		}
		io.wn = n
		err := io.rc.Write(io.writeFn)
		if err != nil {
			return err
		}
		if io.werrno != 0 {
			return io.werrno
		}
		if io.wsent <= 0 {
			return syscall.EIO
		}
		off += io.wsent // a short sendmmsg resumes with the remainder
	}
	return nil
}

// segSender writes bursts of request datagrams on a connected client
// socket via sendmmsg — the session window's flush primitive. The
// socket stays connected (no per-packet Name), so a burst of depth-many
// chunks costs one kernel crossing. Fault-injecting wrappers are not
// *net.UDPConn, so chaos tests transparently take the Write loop and
// every fault still applies per datagram.
type segSender struct {
	conn net.Conn
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec

	// writeFn is bound once (see mmsgIO): a per-call closure would cost
	// an allocation per flush on the zero-alloc session path. The session
	// goroutine is the only caller.
	writeFn func(fd uintptr) bool
	wn      int
	wsent   int
	werrno  syscall.Errno
}

func newSegSender(conn net.Conn) *segSender {
	ss := &segSender{conn: conn}
	if uc, ok := conn.(*net.UDPConn); ok {
		if rc, err := uc.SyscallConn(); err == nil {
			ss.rc = rc
		}
	}
	ss.writeFn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&ss.hdrs[0])), uintptr(ss.wn),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		if e != 0 {
			ss.wsent, ss.werrno = 0, e
			return true
		}
		ss.wsent, ss.werrno = int(r), 0
		return true
	}
	return ss
}

func (ss *segSender) send(bufs [][]byte) error {
	if ss.rc == nil {
		for _, b := range bufs {
			if _, err := ss.conn.Write(b); err != nil {
				return err
			}
		}
		return nil
	}
	if len(bufs) > len(ss.hdrs) {
		ss.hdrs = make([]mmsghdr, len(bufs))
		ss.iovs = make([]syscall.Iovec, len(bufs))
	}
	for off := 0; off < len(bufs); {
		n := len(bufs) - off
		for i := 0; i < n; i++ {
			b := bufs[off+i]
			ss.iovs[i] = syscall.Iovec{Base: &b[0], Len: uint64(len(b))}
			ss.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{Iov: &ss.iovs[i], Iovlen: 1}}
		}
		ss.wn = n
		err := ss.rc.Write(ss.writeFn)
		if err != nil {
			return err
		}
		if ss.werrno != 0 {
			return ss.werrno
		}
		if ss.wsent <= 0 {
			return syscall.EIO
		}
		off += ss.wsent
	}
	return nil
}

// sockaddrToAddrPort converts a kernel-filled raw sockaddr to the
// allocation-free netip.AddrPort the pipeline carries. Ports ride the
// wire big-endian inside the raw structs.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(rsa4.Addr), be16(rsa4.Port))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr), be16(rsa.Port))
	}
	return netip.AddrPort{}
}

// addrPortToSockaddr fills a raw sockaddr for sendmmsg and returns the
// length the kernel expects for that family.
func addrPortToSockaddr(rsa *syscall.RawSockaddrInet6, ap netip.AddrPort) uint32 {
	a := ap.Addr()
	if a.Is4() {
		rsa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*rsa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: be16(ap.Port()), Addr: a.As4()}
		return syscall.SizeofSockaddrInet4
	}
	*rsa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: be16(ap.Port()), Addr: a.As16()}
	return syscall.SizeofSockaddrInet6
}

// be16 byte-swaps a 16-bit value between host order (little-endian on
// both tagged arches) and the network order raw sockaddrs use. It is
// its own inverse, so one helper serves both directions.
func be16(v uint16) uint16 { return v<<8 | v>>8 }
