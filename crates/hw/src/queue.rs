use std::collections::VecDeque;

/// A hardware task queue (TQ): an unbounded FIFO whose occupancy is the
/// "pending task counter" the local-sharing comparators read.
///
/// The simulator measures the depth a workload requires rather than
/// enforcing one: the paper sizes the TQ contribution to chip area by that
/// depth (§5.2: rebalancing shrinks Nell's layer-1 TQ depth from 65 128 to
/// 2 675 slots), and the engines record each PE's high-water mark
/// themselves.
///
/// # Example
///
/// ```
/// use awb_hw::TaskQueue;
///
/// let mut q: TaskQueue<u32> = TaskQueue::unbounded();
/// q.push(7);
/// q.push(9);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.peek(), Some(&7));
/// assert_eq!(q.pop(), Some(7));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskQueue<T> {
    items: VecDeque<T>,
}

impl<T> TaskQueue<T> {
    /// An empty, unbounded queue.
    pub fn unbounded() -> Self {
        TaskQueue {
            items: VecDeque::new(),
        }
    }

    /// Pushes a task at the back.
    pub fn push(&mut self, task: T) {
        self.items.push_back(task);
    }

    /// Pops the oldest task.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest task.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy (the "pending task counter" the local-sharing
    /// comparators read).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no tasks are pending (the "empty" signal wired to the PE
    /// Status Monitor).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> Default for TaskQueue<T> {
    fn default() -> Self {
        TaskQueue::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = TaskQueue::unbounded();
        for i in 0..5 {
            q.push(i);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = TaskQueue::unbounded();
        q.push(42);
        assert_eq!(q.peek(), Some(&42));
        assert_eq!(q.len(), 1);
    }
}
