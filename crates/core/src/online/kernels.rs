//! Online kernel address restoration (paper §5): the `dlsym` path for
//! exported kernels and module enumeration for hidden ones, with
//! first-layer forwarding as the triggering-kernels that force the driver
//! to load the needed modules (§5.2).

use crate::artifact::MaterializedState;
use crate::error::{MedusaError, MedusaResult};
use medusa_gpu::{GpuError, ProcessRuntime};
use std::collections::{HashMap, HashSet};

/// How each kernel's address was restored, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Kernels restored via `dlopen` + `dlsym` + `cudaGetFuncBySymbol`.
    pub via_dlsym: usize,
    /// Kernels restored via module enumeration after triggering.
    pub via_enumeration: usize,
}

/// Incrementally resolves materialized kernel names to device addresses.
#[derive(Debug, Default)]
pub struct KernelResolver {
    addrs: HashMap<(String, String), u64>,
    stats: ResolutionStats,
    /// The kernel set of the artifact being resolved, computed once.
    needed: Option<NeededKernels>,
}

/// One artifact's unique kernels and which of them are resolved.
#[derive(Debug)]
struct NeededKernels {
    /// Sealed checksum of the artifact the set was computed from.
    checksum: u64,
    /// `(library, kernel, exported)` in first-use order.
    kernels: Vec<(String, String, bool)>,
    /// Per kernel: present in `addrs`.
    resolved: Vec<bool>,
}

impl NeededKernels {
    fn first_gap(&self) -> Option<usize> {
        self.resolved.iter().position(|r| !r)
    }
}

impl KernelResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resolved `(library, kernel) → address` map.
    pub fn addrs(&self) -> &HashMap<(String, String), u64> {
        &self.addrs
    }

    /// Resolution statistics.
    pub fn stats(&self) -> &ResolutionStats {
        &self.stats
    }

    /// The unique `(library, kernel, exported)` triples an artifact needs,
    /// in first-use order.
    pub fn needed(artifact: &MaterializedState) -> Vec<(String, String, bool)> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for n in artifact.graphs.iter().flat_map(|g| &g.nodes) {
            if seen.insert((n.library.as_str(), n.kernel.as_str())) {
                out.push((n.library.clone(), n.kernel.clone(), n.exported));
            }
        }
        out
    }

    /// The kernel set of `artifact`, if it is the one this resolver has
    /// computed it for.
    fn cached(&self, artifact: &MaterializedState) -> Option<&NeededKernels> {
        self.needed
            .as_ref()
            .filter(|n| n.checksum == artifact.checksum)
    }

    /// The kernel set of `artifact`, computed on first use and again only
    /// when a different artifact is passed.
    fn needed_for(&mut self, artifact: &MaterializedState) -> &mut NeededKernels {
        if self.cached(artifact).is_none() {
            let kernels = Self::needed(artifact);
            let resolved = kernels
                .iter()
                .map(|(l, k, _)| self.addrs.contains_key(&(l.clone(), k.clone())))
                .collect();
            self.needed = Some(NeededKernels {
                checksum: artifact.checksum,
                kernels,
                resolved,
            });
        }
        self.needed.as_mut().expect("just computed")
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
    pub fn resolve_exported(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &MaterializedState,
    ) -> MedusaResult<()> {
        self.needed_for(artifact);
        let needed = self.needed.as_mut().expect("computed above");
        for (i, (library, kernel, _exported)) in needed.kernels.iter().enumerate() {
            if needed.resolved[i] {
                continue;
            }
            let handle = rt.dlopen(library)?;
            match rt.dlsym(handle, kernel) {
                Ok(sym) => {
                    let addr = rt.cuda_get_func_by_symbol(sym)?;
                    self.addrs.insert((library.clone(), kernel.clone()), addr);
                    needed.resolved[i] = true;
                    self.stats.via_dlsym += 1;
                }
                Err(GpuError::SymbolHidden { .. }) => { /* needs triggering */ }
                Err(e) => return Err(e.into()),
            }
        }
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
    pub fn resolve_by_enumeration(
        &mut self,
        rt: &mut ProcessRuntime,
        artifact: &MaterializedState,
    ) -> MedusaResult<()> {
        if self.needed_for(artifact).first_gap().is_none() {
            return Ok(());
        }
        let mut by_name: HashMap<String, u64> = HashMap::new();
        for module in rt.loaded_modules() {
            for addr in rt.cu_module_enumerate_functions(module)? {
                let name = rt.cu_func_get_name(addr)?.to_string();
                by_name.insert(name, addr);
            }
        }
        let needed = self.needed.as_mut().expect("computed above");
        for (i, (library, kernel, _)) in needed.kernels.iter().enumerate() {
            if needed.resolved[i] {
                continue;
            }
            if let Some(&addr) = by_name.get(kernel) {
                self.addrs.insert((library.clone(), kernel.clone()), addr);
                needed.resolved[i] = true;
                self.stats.via_enumeration += 1;
            }
        }
        Ok(())
    }

    /// Verifies every kernel the artifact references is resolved. Once
    /// this resolver has resolved `artifact`, the check allocates nothing
    /// unless it fails.
    ///
    /// # Errors
    ///
    /// Returns [`MedusaError::KernelUnresolved`] naming the first gap.
    pub fn ensure_complete(&self, artifact: &MaterializedState) -> MedusaResult<()> {
        let gap = match self.cached(artifact) {
            Some(needed) => needed.first_gap().map(|i| needed.kernels[i].clone()),
            None => Self::needed(artifact)
                .into_iter()
                .find(|(l, k, _)| !self.addrs.contains_key(&(l.clone(), k.clone()))),
        };
        match gap {
            Some((library, kernel, _)) => Err(MedusaError::KernelUnresolved { library, kernel }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }
}
