package main

import (
	"os"
	"syscall"
	"unsafe"
)

// Linux inode-flag ioctls and the flag that marks a directory as the
// top of a hierarchy (chattr +T).
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// markTopDir sets the top-of-hierarchy flag on dir, so that ext4
// places each directory created in it in a block group of its own
// choosing instead of next to dir. A run creates and, at its end,
// deletes thousands of files; ext4 without a journal skips recently
// freed inodes when it allocates, so a run whose files shared block
// groups with the previous run's would pay for that run's clean-up in
// every file it creates. File systems without the flag are left as
// they are.
func markTopDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	if flags&fsTopdirFl != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
