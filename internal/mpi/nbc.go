package mpi

// Non-blocking collectives. The paper (2013) predates MPI-3's official
// non-blocking collectives and says HCMPI "will add support ... once they
// become part of the MPI standard"; they since have (MPI_Ibarrier,
// MPI_Ibcast, MPI_Iallreduce, ...), so this substrate provides them as
// the paper's named future work. Each starts the collective's schedule
// and returns it as the handle: there is no helper goroutine, so the
// collective advances when its owner tests or waits on it (MPI's weak
// progress rule). The rounds use the same reserved tag space as the
// blocking collectives, so blocking and non-blocking collectives can be
// freely mixed as long as every rank issues them in the same order.

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier() *Schedule {
	s := &Schedule{}
	s.Barrier()
	s.Start(c)
	return s
}

// Ibcast starts a non-blocking broadcast of root's buf into every rank's
// buf. The buffer must not be touched until the schedule finishes.
func (c *Comm) Ibcast(buf []byte, root int) *Schedule {
	s := &Schedule{}
	s.Bcast(buf, root)
	s.Start(c)
	return s
}

// Iallreduce starts a non-blocking allreduce; the result is the
// schedule's Payload once it has finished. data is copied at the call.
func (c *Comm) Iallreduce(data []byte, dt Datatype, op Op) *Schedule {
	s := &Schedule{}
	s.Allreduce(data, dt, op)
	s.Start(c)
	return s
}
