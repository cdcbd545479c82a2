package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB returns this process's peak resident set so far (VmHWM in
// /proc/self/status, KiB) in MB, or 0 when unavailable. A child reads
// its own: the ru_maxrss its parent gets from wait4 also counts the
// parent's resident set at the fork, which exec inherits as a floor.
func peakRSSMB() float64 {
	return float64(procValue("/proc/self/status", "VmHWM:")) * 1024 / 1e6
}

// writtenBytes returns the bytes this process has passed to write
// calls so far (wchar in /proc/self/io), or 0 when unavailable.
func writtenBytes() int64 {
	return procValue("/proc/self/io", "wchar:")
}

// procValue returns the first number after key on the line of a
// /proc file that starts with it, or 0 when there is none.
func procValue(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			if fields := strings.Fields(v); len(fields) > 0 {
				n, _ := strconv.ParseInt(fields[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// fsType names the filesystem dir lives on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
