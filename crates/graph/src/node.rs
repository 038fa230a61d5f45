//! CUDA graph nodes.
//!
//! A node mirrors what `cudaGraphKernelNodeGetParams` exposes (paper
//! Figure 4): the kernel's device function address and the raw parameter
//! buffer (count + size of each parameter). Medusa's materialization reads
//! nodes through exactly this interface and its restoration writes them back
//! through [`GraphNode::set_kernel_addr`] / [`GraphNode::params_mut`].

use medusa_gpu::{ParamBuffer, Work};
use serde::{Deserialize, Serialize};

/// One kernel node of a CUDA graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphNode {
    kernel_addr: u64,
    params: ParamBuffer,
    work: Work,
}

impl GraphNode {
    /// Creates a node from its launch record contents.
    pub fn new(kernel_addr: u64, params: ParamBuffer, work: Work) -> Self {
        GraphNode {
            kernel_addr,
            params,
            work,
        }
    }

    /// The device function address recorded in the node.
    pub fn kernel_addr(&self) -> u64 {
        self.kernel_addr
    }

    /// Overwrites the device function address (kernel address restoration,
    /// paper §5).
    pub fn set_kernel_addr(&mut self, addr: u64) {
        self.kernel_addr = addr;
    }

    /// The raw parameter buffer.
    pub fn params(&self) -> &ParamBuffer {
        &self.params
    }

    /// Mutable access to the parameter buffer (data pointer restoration,
    /// paper §4.2).
    pub fn params_mut(&mut self) -> &mut ParamBuffer {
        &mut self.params
    }

    /// The node's work size (grid-dim equivalent; determines replay time).
    pub fn work(&self) -> Work {
        self.work
    }

    /// Overwrites the work size (a graph restored from another of its
    /// topology takes each node's own work).
    pub fn set_work(&mut self, work: Work) {
        self.work = work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medusa_gpu::{KernelSig, ParamKind};

    #[test]
    fn node_accessors_and_patching() {
        let sig = KernelSig::new(vec![ParamKind::PtrIn, ParamKind::Scalar4]);
        let pb = ParamBuffer::encode(&sig, &[0x0007_2000_0000_0100, 7]);
        let mut n = GraphNode::new(0x5f00_0000, pb, Work::new(1.0, 2.0));
        assert_eq!(n.kernel_addr(), 0x5f00_0000);
        assert_eq!(n.params().value(1), 7);
        n.set_kernel_addr(0x5f00_1111);
        n.params_mut().set_value(0, 0x0007_2000_0000_0200);
        assert_eq!(n.kernel_addr(), 0x5f00_1111);
        assert_eq!(n.params().value(0), 0x0007_2000_0000_0200);
        assert_eq!(n.work(), Work::new(1.0, 2.0));
        n.set_work(Work::new(3.0, 4.0));
        assert_eq!(n.work(), Work::new(3.0, 4.0));
        assert_eq!(n.kernel_addr(), 0x5f00_1111);
        assert_eq!(n.params().value(0), 0x0007_2000_0000_0200);
    }
}
