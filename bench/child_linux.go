//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill a child whose parent dies first, so
// a benchmark that is itself killed leaves no child measuring on.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
