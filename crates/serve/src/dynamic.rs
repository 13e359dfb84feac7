//! The mutable router's name and constructor. A mutable shard is a static
//! one that somebody writes to, so there is one router, [`ShardRouter`].

use std::ops::{Deref, DerefMut};

use psb_core::shard::ShardPolicy;
use psb_geom::PointSet;
use psb_gpu::DeviceConfig;
use psb_sstree::SsTree;

use crate::router::{ServeConfig, ShardRouter};

/// A [`ShardRouter`] over SS-trees, one replica a shard on a K40, built by
/// [`DynamicShardRouter::build`]. Everything else is the router's.
pub struct DynamicShardRouter(ShardRouter<SsTree>);

impl DynamicShardRouter {
    /// Partitions `points` into `shards` shards under `policy` and packs
    /// each by Hilbert key at `degree`, the shards built side by side.
    /// Panics on a layout [`ShardRouter::try_build`] refuses.
    pub fn build(points: &PointSet, shards: usize, policy: &ShardPolicy, degree: usize) -> Self {
        let cfg = ServeConfig::new(shards).with_policy(*policy);
        match ShardRouter::try_build_packed(points, &cfg, &DeviceConfig::k40(), degree) {
            Ok(router) => Self(router),
            Err(e) => panic!("invalid serve layout: {e}"),
        }
    }
}

impl Deref for DynamicShardRouter {
    type Target = ShardRouter<SsTree>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for DynamicShardRouter {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
