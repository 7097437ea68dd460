(** DBSCAN density-based clustering (Ester et al. [4]).  One core
    expands clusters from eps-neighborhoods; the neighborhoods come
    from a distance-matrix scan ({!run}) or an exact index
    ({!run_index}). *)

type params = { eps : float; min_pts : int }

type range_index = {
  ri_n : int;  (** number of points *)
  range : int -> int list;
      (** [range i] = the exact eps-neighborhood of [i], ascending, [i]
          excluded (e.g. [Index.Vp_tree.range], which answers from the
          prefix filter, or the BK-tree on edit) *)
}
(** Neighborhoods answered wholesale, e.g. by a pre-built index;
    DBSCAN never needs the distance values themselves. *)

val run_index : min_pts:int -> range_index -> int array
(** Labels per point: cluster ids from 0 upward, [-1] for noise.  Cluster
    ids are assigned in scan order, so equal neighborhoods give equal
    label arrays (not merely equal partitions).  Each [range] call is
    counted in [kitdpe.mining.dbscan.neighbor_scans]. *)

val run : params -> Dist_matrix.t -> int array
(** {!run_index} over an ascending scan of the matrix row,
    [j <> i && get m i j <= eps]: whenever [range i] equals that scan,
    the two label arrays are bit-identical. *)
