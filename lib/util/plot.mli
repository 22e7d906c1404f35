(** ASCII plotting for the experiment harness.

    The paper's Figure 5 plots cumulative distributions of miss rates and
    Figure 6 plots metric-vs-miss scatter charts; these renderers let
    [trgplace all --full-output] carry the same visual information as the
    paper's figures, not just summary tables. *)

val markers : char array
(** Marker assigned to each series, in order ('*', '+', 'o', 'x', ...). *)

val cdf :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  (string * float array) list ->
  string
(** [cdf series] renders the empirical CDF of each named sample on one
    canvas: x spans the pooled value range, y is the cumulative fraction
    [0, 1].  A series drawn to the {e left} of another dominates it (lower
    values), exactly as in the paper's Figure 5.  Includes a legend and
    numeric x-axis ticks.  Default canvas 72x20. *)

val scatter :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  (string * (float * float) array) list ->
  string
(** [scatter series] renders point clouds on shared axes (x and y ranges
    pooled across series). *)
