(** The paper's experiments: Table 1 rows and the figure series.

    Every row of Table 1 is encoded with the numbers printed in the
    paper, so the harness can regenerate the table side by side with
    the reproduction's measurements; the figure experiments regenerate
    the state-count series behind Figures 1 and 2. *)

type paper_row = {
  full_states : float;  (** "States" column. *)
  spin_states : float;  (** SPIN+PO states. *)
  spin_time : float;  (** SPIN+PO seconds (HP K260). *)
  smv_peak : float option;  (** Peak BDD size; [None] = "> 24 hours". *)
  smv_time : float option;
  gpo_states : float;  (** GPO states. *)
  gpo_time : float;
}

type family = {
  id : string;  (** "NSDP", "ASAT", "OVER", "RW". *)
  description : string;
  make : int -> Petri.Net.t;
  expect_deadlock : bool;
  rows : (int * paper_row) list;  (** Size → paper numbers. *)
}

val families : family list
(** The four benchmark families, in Table 1 order. *)

val family : string -> family
(** Look up a family by (case-insensitive) id.  Raises [Not_found]. *)

type measurement = {
  family_id : string;
  size : int;
  paper : paper_row;
  outcomes : Engine.outcome list;  (** In {!Engine.all} order. *)
}

val measure :
  ?engines:Engine.kind list ->
  ?max_states:int ->
  ?full_budget:float ->
  family ->
  int ->
  measurement
(** Run the engines on one instance.  [engines] defaults to all four;
    GPO runs the paper's procedure ([Engine.run ~gpo_scan:false]).
    [full_budget] (seconds, default: unlimited) skips the conventional
    and symbolic engines when the time spent on the family's {e previous}
    sizes, extrapolated pessimistically, exceeds the budget — the
    paper's ">24 hours" cells; a skipped outcome is reported truncated
    with 0 states. *)

val table1 :
  ?engines:Engine.kind list ->
  ?max_states:int ->
  ?full_budget:float ->
  ?sizes:(string * int list) list ->
  unit ->
  measurement list
(** Run the whole Table 1 grid with a [full_budget] of 60 s per family.
    [sizes] overrides the per-family instance sizes (default: the
    paper's). *)

val pp_table1 : Format.formatter -> measurement list -> unit
(** Render the reproduction of Table 1, paper numbers beside measured
    ones. *)

val fig1_series : unit -> (string * int) list
(** Figure 1 reproduction: labelled state counts for the 3-transition
    net — full interleaving graph (8), its maximal interleavings (6),
    partial-order path (4), GPO (2). *)

val fig2_series : ?max_n:int -> unit -> (int * float * float * float) list
(** Figure 2 reproduction: for each [N ≤ max_n] (default 12), the
    state counts [(N, full = 3^N, po = 2^(N+1) - 1, gpo = 2)] measured
    by actually running the three engines. *)

val pp_fig2 : Format.formatter -> (int * float * float * float) list -> unit
(** Render the Figure 2 series as a table. *)
