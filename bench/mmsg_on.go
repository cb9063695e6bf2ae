//go:build linux && (amd64 || arm64) && !countnet_nommsg

package main

// mmsgBuild names the udpnet syscall variant this binary was built
// with, for the host stamp (same constraint as udpnet/mmsg_linux.go).
const mmsgBuild = "recvmmsg/sendmmsg"
