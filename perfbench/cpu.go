package main

import "syscall"

// cpuNow is the CPU time, user and system, that this process has used
// so far, in ns: the load generator, the gateway and all six nodes
// together, garbage collection included. Unlike wall time it does not
// grow while the process waits for a CPU, and on a VM with paravirtual
// steal accounting (as Linux guests on KVM have) it leaves out the time
// the host did not run the VM's vCPUs, so it measures the work done
// rather than how busy the host was.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
