// Demo for `repro races`: a driver-flavoured program with two spawned
// threads, an ioctl path and an interrupt handler.  counter_safe is
// always updated under the lock; counter_racy is locked on the ioctl
// path but written unlocked from the interrupt path, a data race.
//
//   PYTHONPATH=src python -m repro races examples/race_demo.c
//
// Threads are the functions handed to spawn(); the direct calls below
// keep their bodies on main's supergraph so the lockset dataflow
// reaches them.

int dev_lock_obj;
int counter_safe;
int counter_racy;

int *the_lock;

void lock(int *l) { }
void unlock(int *l) { }

void ioctl_handler(void) {
    lock(the_lock);
    counter_safe = counter_safe + 1;
    counter_racy = counter_racy + 1;   /* locked here... */
    unlock(the_lock);
}

void irq_handler(void) {
    lock(the_lock);
    counter_safe = counter_safe + 2;
    unlock(the_lock);
    counter_racy = counter_racy + 2;   /* ...but not here: race! */
}

int main() {
    the_lock = &dev_lock_obj;
    spawn(ioctl_handler);
    spawn(irq_handler);
    ioctl_handler();
    irq_handler();
    return 0;
}
