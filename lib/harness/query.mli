(** The query pipeline: the one place that turns a verification
    question into a checked verdict.

    A question names a net ({!source}), an optional cover property, an
    engine {!selection} and {!budgets}.  {!prepare} resolves the net and
    the monitored target, {!run} executes the selection under the
    budgets, {!certify} checks a violation verdict independently,
    {!classify} turns the checked outcome into a {!verdict}, and
    {!exit_code} folds verdicts into the scriptable exit code.
    The [julie] verdict commands and the [julie serve] scheduler both go
    through this module, so a question gets the same verdict however it
    is asked.

    Bad input is an [Error], never an exception: unknown model, unknown
    engine, unknown place, a size the model rejects, an unreadable or
    malformed net. *)

(** Where the net comes from. *)
type source =
  | File of string  (** A net file in the {!Petri.Parser} format. *)
  | Inline of string  (** Net text in the same format, named ["net"]. *)
  | Model of { id : string; size : int }
      (** A builtin model: nsdp, asat, over, rw, scheduler, random
          (seeded by [size]) or a figure (fig1, fig2, fig3, fig5,
          fig7). *)

val load : source -> (Petri.Net.t, string) result
(** Resolve a source to its net. *)

(** Which engine answers: one of the four, or the racing portfolio. *)
type selection = Single of Engine.kind | Portfolio

val selection_of_string : string -> (selection, string) result
(** ["full"], ["po"] (also ["spin+po"], ["stubborn"]), ["smv"] (also
    ["bdd"], ["symbolic"]), ["gpo"] or ["portfolio"]. *)

val selection_name : selection -> string
(** {!Engine.name} of a single engine, or ["portfolio"].  Parses back
    with {!selection_of_string}. *)

type budgets = {
  max_states : int;  (** State budget of the explicit and GPO engines. *)
  jobs : int;  (** GPO wave workers per engine run; [0] = auto. *)
  timeout_s : float option;  (** Wall-clock deadline per engine run. *)
  mem_mb : int option;  (** Soft heap budget per engine run. *)
}

(** A prepared question. *)
type t = {
  net : Petri.Net.t;  (** The net the question is about. *)
  target : Petri.Net.t;
      (** What the engines run on: [net] itself for deadlock freedom,
          its {!Petri.Safety.monitor} for a cover property. *)
  property : Petri.Safety.property option;
}

val prepare : ?cover:string list -> source -> (t, string) result
(** Resolve the net and, for a non-empty [cover], check the place names
    and build the monitored target.  Never raises. *)

val key :
  witness:bool -> reduce:bool -> budgets -> selection -> t ->
  Result_cache.key
(** The content-addressed cache key of the question run with these
    settings.  Only the service needs it, so {!prepare} does not build
    it. *)

val run :
  ?cancel:Par.Cancel.t ->
  ?on_race:(Portfolio.report -> unit) ->
  witness:bool ->
  reduce:bool ->
  budgets ->
  selection ->
  t ->
  Engine.outcome
(** Run the selection on [target].  A single engine runs under a guard
    armed with the deadline and memory budgets (none when both are
    absent), polling [cancel]; the portfolio arms one guard per entrant
    and hands its report to [on_race].  GPO always runs with the
    deviation scan — the complete configuration. *)

val certify : t -> Engine.outcome -> Certify.verdict
(** {!Certify.deadlock} on [net], or {!Certify.safety} for a cover
    property (the outcome must come from {!run} on the same question). *)

(** {1 Verdicts}

    The one verdict policy, shared by every [julie] verdict command,
    the [julie serve] scheduler and the client side of its wire
    protocol. *)

(** The class of one answered question. *)
type verdict =
  | Holds  (** An exhaustive run found no violation. *)
  | Violated  (** A violation whose witness certified. *)
  | Inconclusive of Guard.stop_reason
      (** The run stopped early without a certified violation. *)
  | Untrusted  (** A violation was claimed but its witness was rejected. *)
  | Failed of string  (** The question got no answer (service jobs). *)

val verdict : Engine.outcome -> certified:bool option -> verdict
(** Classify an outcome given its certification: [Some true] when the
    witness certified, [Some false] when it was rejected, [None] when
    nothing was certified — a clean run, a truncated run that
    reconstructed no witness, or a service job that asked for no
    witness (its violation is reported uncertified, as asked).  A
    violation found before a budget stopped the run still counts. *)

val classify : t -> Engine.outcome -> Certify.verdict * verdict
(** {!certify} the outcome, then {!verdict} — the certificate for
    rendering, and its class.  Never [Failed]. *)

val exit_code : verdict list -> int
(** The exit policy: [2] if any verdict is [Untrusted], else [1] if any
    is [Violated], else [2] if any is [Inconclusive] or [Failed], else
    [0] (also for the empty list). *)

val verdict_name : verdict -> string
(** One-word rendering: ["holds"], ["VIOLATED"], ["inconclusive (…)"],
    ["UNTRUSTED"], ["failed: …"]. *)
