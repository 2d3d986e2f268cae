package store

import "syscall"

// sysFstatat is fstatat's number, which amd64 calls newfstatat.
const sysFstatat = syscall.SYS_NEWFSTATAT
