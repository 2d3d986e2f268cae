//go:build linux && (amd64 || arm64)

package store

// rawIO reports that the store reaches the disk through dirio_linux.go's
// system calls, which allocate nothing: what the allocation ceilings count.
const rawIO = true
