//go:build !linux || countnet_nommsg || !(amd64 || arm64)

package main

// mmsgBuild: the portable one-datagram-per-syscall variant (same
// constraint as udpnet/mmsg_other.go).
const mmsgBuild = "portable"
