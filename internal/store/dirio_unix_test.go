//go:build unix && !(linux && (amd64 || arm64))

package store

// rawIO reports that the store reaches the disk through dirio_linux.go's
// system calls; here it goes through package os, which allocates the paths
// and files the allocation ceilings count out.
const rawIO = false
