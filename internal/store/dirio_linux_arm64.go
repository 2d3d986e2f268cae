package store

import "syscall"

// sysFstatat is fstatat's number.
const sysFstatat = syscall.SYS_FSTATAT
