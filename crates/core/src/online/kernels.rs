//! Online kernel address restoration (paper §5): the `dlsym` path for
//! exported kernels and module enumeration for hidden ones, with
//! first-layer forwarding as the triggering-kernels that force the driver
//! to load the needed modules (§5.2).

use crate::artifact::ShardRead;
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{GpuError, ProcessRuntime};
use std::collections::HashMap;

/// How each kernel's address was restored, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Kernels restored via `dlopen` + `dlsym` + `cudaGetFuncBySymbol`.
    pub via_dlsym: usize,
    /// Kernels restored via module enumeration after triggering.
    pub via_enumeration: usize,
}

/// Resolved kernel addresses, by `(library, kernel)` name.
#[derive(Debug, Default)]
pub struct KernelAddrs {
    /// Library → kernel → address.
    by_name: HashMap<String, HashMap<String, u64>>,
}

impl KernelAddrs {
    /// The address of `kernel` in `library`, if resolved.
    pub fn get(&self, library: &str, kernel: &str) -> Option<u64> {
        self.by_name.get(library)?.get(kernel).copied()
    }
}

/// Incrementally resolves materialized kernel names to device addresses.
#[derive(Debug, Default)]
pub struct KernelResolver {
    addrs: KernelAddrs,
    stats: ResolutionStats,
    /// The kernel table of the shard last resolved, computed once.
    needed: Option<NeededKernels>,
}

/// One shard's unique kernels.
#[derive(Debug)]
struct NeededKernels {
    /// Sealed checksum of the shard the table was computed from.
    checksum: u64,
    /// `(library, kernel, exported)` in first-use order.
    kernels: Vec<(String, String, bool)>,
    /// How many of `kernels` have an address.
    resolved: usize,
}

impl NeededKernels {
    fn complete(&self) -> bool {
        self.resolved == self.kernels.len()
    }
}

impl KernelResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resolved kernel addresses.
    pub fn addrs(&self) -> &KernelAddrs {
        &self.addrs
    }

    /// Resolution statistics.
    pub fn stats(&self) -> &ResolutionStats {
        &self.stats
    }

    /// The unique `(library, kernel, exported)` triples a shard needs, in
    /// first-use order.
    pub fn needed<S: ShardRead + ?Sized>(artifact: &S) -> Vec<(String, String, bool)> {
        artifact
            .kernels()
            .into_iter()
            .map(|k| (k.library.to_string(), k.kernel.to_string(), k.exported))
            .collect()
    }

    /// The kernel table of `artifact`, if it is the one this resolver has
    /// computed.
    fn cached<S: ShardRead + ?Sized>(&self, artifact: &S) -> Option<&NeededKernels> {
        self.needed
            .as_ref()
            .filter(|n| n.checksum == artifact.checksum())
    }

    /// Computes the kernel table of `artifact` on first use, and again only
    /// when a different shard is passed, counting the kernels already
    /// resolved.
    fn needed_for<S: ShardRead + ?Sized>(&mut self, artifact: &S) {
        if self.cached(artifact).is_none() {
            let kernels = Self::needed(artifact);
            let resolved = kernels
                .iter()
                .filter(|(l, k, _)| self.addrs.get(l, k).is_some())
                .count();
            self.needed = Some(NeededKernels {
                checksum: artifact.checksum(),
                kernels,
                resolved,
            });
        }
    }

    /// Runs `resolve` for every unresolved kernel of `artifact`'s table, in
    /// table order, and records the addresses it finds; returns how many it
    /// found.
    fn resolve_gaps<S: ShardRead + ?Sized>(
        &mut self,
        artifact: &S,
        mut resolve: impl FnMut(&str, &str) -> MedusaResult<Option<u64>>,
    ) -> MedusaResult<usize> {
        self.needed_for(artifact);
        let Self { addrs, needed, .. } = self;
        let Some(needed) = needed else {
            return Ok(0);
        };
        let mut found = 0;
        for (library, kernel, _) in &needed.kernels {
            if addrs.get(library, kernel).is_some() {
                continue;
            }
            if let Some(addr) = resolve(library, kernel)? {
                addrs
                    .by_name
                    .entry(library.clone())
                    .or_default()
                    .insert(kernel.clone(), addr);
                found += 1;
                needed.resolved += 1;
            }
        }
        Ok(found)
    }

    /// Resolves every *exported* kernel through the `dlsym` path: `dlopen`
    /// the library, `dlsym` the mangled name, `cudaGetFuncBySymbol` to load
    /// its module and obtain the device address (paper §5, first path).
    ///
    /// Hidden kernels are skipped (they need triggering first); genuinely
    /// missing symbols are errors.
    ///
    /// # Errors
    ///
    /// Returns driver errors other than [`GpuError::SymbolHidden`].
    pub fn resolve_exported<S: ShardRead + ?Sized>(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &S,
    ) -> MedusaResult<()> {
        self.stats.via_dlsym += self.resolve_gaps(artifact, |library, kernel| {
            let handle = rt.dlopen(library)?;
            match rt.dlsym(handle, kernel) {
                Ok(sym) => Ok(Some(rt.cuda_get_func_by_symbol(sym)?)),
                Err(GpuError::SymbolHidden { .. }) => Ok(None), // needs triggering
                Err(e) => Err(e.into()),
            }
        })?;
        Ok(())
    }

    /// Resolves remaining (hidden) kernels by enumerating every module the
    /// driver has loaded so far: `cuModuleEnumerateFunctions` +
    /// `cuFuncGetName` (paper §5, second path). Call after the
    /// triggering-kernels (first-layer warm-up/capture) have run.
    ///
    /// # Errors
    ///
    /// Returns driver errors from the enumeration APIs.
    pub fn resolve_by_enumeration<S: ShardRead + ?Sized>(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &S,
    ) -> MedusaResult<()> {
        self.needed_for(artifact);
        if self.needed.as_ref().is_some_and(NeededKernels::complete) {
            return Ok(());
        }
        let mut functions = Vec::new();
        for module in rt.loaded_modules() {
            functions.extend(rt.cu_module_enumerate_functions(module)?);
        }
        let mut by_name: HashMap<&str, u64> = HashMap::with_capacity(functions.len());
        for addr in functions {
            by_name.insert(rt.cu_func_get_name(addr)?, addr);
        }
        self.stats.via_enumeration +=
            self.resolve_gaps(artifact, |_, kernel| Ok(by_name.get(kernel).copied()))?;
        Ok(())
    }

    /// Verifies every kernel the shard references is resolved. Once this
    /// resolver has resolved every kernel of `artifact`, the check is O(1);
    /// before, it allocates nothing unless it fails.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::KernelUnresolved`] naming the first gap.
    pub fn ensure_complete<S: ShardRead + ?Sized>(&self, artifact: &S) -> MedusaResult<()> {
        let gap = if let Some(needed) = self.cached(artifact) {
            if needed.complete() {
                return Ok(());
            }
            needed
                .kernels
                .iter()
                .find(|(l, k, _)| self.addrs.get(l, k).is_none())
                .map(|(library, kernel, _)| (library.clone(), kernel.clone()))
        } else {
            artifact
                .kernels()
                .into_iter()
                .find(|k| self.addrs.get(k.library, k.kernel).is_none())
                .map(|k| (k.library.to_string(), k.kernel.to_string()))
        };
        match gap {
            Some((library, kernel)) => Err(MedusaError::KernelUnresolved { library, kernel }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::MaterializedState;
    use crate::offline::analysis::analyze;
    use crate::offline::capture::run_offline_capture;
    use medusa_gpu::{CostModel, GpuSpec};
    use medusa_model::{
        build_catalog, load_weights, warmup_first_layer, KvView, ModelInstance, ModelSpec,
    };

    fn artifact() -> MaterializedState {
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let cap =
            run_offline_capture(&spec, GpuSpec::a100_40gb(), CostModel::default(), 31).unwrap();
        analyze(&cap, &CostModel::default()).unwrap().state
    }

    #[test]
    fn dlsym_path_resolves_exported_only() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            99,
        );
        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        assert!(res.stats().via_dlsym > 0);
        assert!(
            res.ensure_complete(&art).is_err(),
            "hidden GEMMs still missing"
        );
        // Enumeration without triggering finds nothing extra: the exported
        // path loaded framework modules, but cuBLAS modules are untouched.
        res.resolve_by_enumeration(&mut rt, &art).unwrap();
        assert!(matches!(
            res.ensure_complete(&art),
            Err(MedusaError::KernelUnresolved { .. })
        ));
    }

    #[test]
    fn needed_deduplicates_kernels_across_graphs() {
        let art = artifact();
        let needed = KernelResolver::needed(&art);
        let mut names: Vec<&String> = needed.iter().map(|(_, k, _)| k).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "needed() must deduplicate");
        // The model uses far fewer distinct kernels than nodes.
        assert!(total < art.stats.nodes as usize / 10);
    }

    #[test]
    fn kernel_set_is_recomputed_for_a_different_artifact() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            112,
        );
        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        // Another artifact (another sealed checksum) whose first kernel no
        // library exports: the resolver must not answer from the first
        // artifact's set.
        let mut other = art.clone();
        other.graphs[0].nodes[0].kernel = "not_in_any_library".into();
        other.seal();
        match res.ensure_complete(&other) {
            Err(MedusaError::KernelUnresolved { kernel, .. }) => {
                assert_eq!(kernel, "not_in_any_library")
            }
            r => panic!("expected a gap, got {r:?}"),
        }
        assert!(res.resolve_exported(&mut rt, &other).is_err());
    }

    #[test]
    fn resolution_is_idempotent() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            111,
        );
        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        let first = res.stats().via_dlsym;
        res.resolve_exported(&mut rt, &art).unwrap();
        assert_eq!(res.stats().via_dlsym, first, "second pass must be a no-op");
    }

    #[test]
    fn triggering_first_layer_completes_resolution() {
        let art = artifact();
        let spec = ModelSpec::by_name("Qwen1.5-0.5B").unwrap();
        let mut rt = ProcessRuntime::new(
            build_catalog(&spec),
            GpuSpec::a100_40gb(),
            CostModel::default(),
            100,
        );
        // Online process: structure init + weights, then first-layer warmup
        // as the triggering-kernels (using a dummy KV allocation here).
        let mut inst = ModelInstance::initialize(&mut rt, &spec).unwrap();
        load_weights(&mut rt, &inst, 1.0).unwrap();
        let k = rt.cuda_malloc(4096, medusa_gpu::AllocTag::KvCache).unwrap();
        let v = rt.cuda_malloc(4096, medusa_gpu::AllocTag::KvCache).unwrap();
        let bt = rt.cuda_malloc(256, medusa_gpu::AllocTag::KvCache).unwrap();
        for p in [k, v, bt] {
            rt.memory_mut().write_digest(p.addr(), [1; 16]).unwrap();
        }
        let kv = KvView {
            kcache: k,
            vcache: v,
            block_table: bt,
            block_size: 16,
        };

        let mut res = KernelResolver::new();
        res.resolve_exported(&mut rt, &art).unwrap();
        // Trigger each GEMM bucket: batch sizes hitting all four buckets.
        for b in [1, 8, 64, 256] {
            warmup_first_layer(&mut rt, &mut inst, b, &kv).unwrap();
        }
        res.resolve_by_enumeration(&mut rt, &art).unwrap();
        res.ensure_complete(&art).unwrap();
        assert!(
            res.stats().via_enumeration > 0,
            "hidden kernels resolved by enumeration"
        );
        // Paper §5: most kernels resolvable via dlsym (69.2% of nodes for
        // Llama2 13B); at the unique-kernel level both paths must be used.
        assert!(res.stats().via_dlsym >= 10);
        assert!(res.needed.as_ref().is_some_and(NeededKernels::complete));

        // Another shard of the same kernels counts them as resolved when
        // its table is computed, and resolves nothing again.
        let mut other = art.clone();
        other.kv_free_bytes += 1;
        other.seal();
        let stats = res.stats().clone();
        res.resolve_exported(&mut rt, &other).unwrap();
        assert!(res.needed.as_ref().is_some_and(NeededKernels::complete));
        res.ensure_complete(&other).unwrap();
        assert_eq!(res.stats(), &stats);
    }
}
