package arm

// CDPAction tells the core how to complete a coprocessor data operation.
// The Proteus dispatch mechanism (§4.2 of the paper) resolves a custom
// instruction in one of three ways, which map onto these actions.
type CDPAction int

// CDP outcomes.
const (
	// CDPUndefined raises the undefined-instruction trap so the operating
	// system can load the circuit, map a software alternative, or kill the
	// process.
	CDPUndefined CDPAction = iota
	// CDPExec runs custom hardware: the core clocks Exec until done,
	// aborting (and later reissuing) if an interrupt arrives.
	CDPExec
	// CDPBranchLink is the software dispatch: the core decodes the
	// instruction as a branch-and-link to Addr (§4.3).
	CDPBranchLink
)

// CDPOutcome is a coprocessor's answer to a CDP issue.
type CDPOutcome struct {
	Action CDPAction
	Exec   CopExec // for CDPExec
	Addr   uint32  // for CDPBranchLink
	// Cycles is extra issue latency (e.g. dispatch TLB lookup).
	Cycles uint32
}

// CopExec is a multi-cycle coprocessor execution in progress. A
// coprocessor may reuse one CopExec for every CDP it answers, so the
// core drops an execution, finished or aborted, before it issues the
// next CDP.
type CopExec interface {
	// Run clocks the execution for at most max cycles (max ≥ 1),
	// stopping at the cycle that completes it. It reports the cycles
	// clocked and whether the last of them completed the execution.
	Run(max uint32) (cycles uint32, done bool)
	// Abort cancels the execution before completion because the core is
	// taking an interrupt; the instruction will be reissued afterwards and
	// must then resume transparently (§4.4).
	Abort()
}

// Coprocessor is the on-chip coprocessor bus interface (CDP/MCR/MRC).
// LDC/STC are not implemented by the ProteanARM and decode as undefined.
type Coprocessor interface {
	// CDP issues a data operation. user reports whether the core is in
	// user mode, letting the coprocessor refuse privileged operations.
	CDP(opc1, crd, crn, crm, opc2 uint32, user bool) CDPOutcome
	// MCR moves a core register value to the coprocessor. Returns false to
	// raise the undefined-instruction trap.
	MCR(opc1, crn, crm, opc2 uint32, value uint32, user bool) bool
	// MRC moves a coprocessor value to a core register.
	MRC(opc1, crn, crm, opc2 uint32, user bool) (uint32, bool)
}
