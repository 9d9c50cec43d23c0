open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Aggregate = Rapida_sparql.Aggregate

type prop_req = { prop : Term.t; obj : Term.t option }

let req ?obj prop = { prop; obj }

let req_matches (t : Triple.t) r =
  Term.equal t.p r.prop
  && match r.obj with None -> true | Some o -> Term.equal t.o o

let satisfies (tg : Triplegroup.t) r =
  List.exists (fun t -> req_matches t r) tg.triples

(* Projection keeping triples relevant to the given requirements: a triple
   survives if some requirement mentions its property and, when that
   requirement constrains the object, the object matches. *)
let project_reqs (tg : Triplegroup.t) reqs =
  Triplegroup.make tg.subject
    (List.filter (fun t -> List.exists (req_matches t) reqs) tg.triples)

let group_filter ~required tgs =
  List.filter_map
    (fun tg ->
      if List.for_all (satisfies tg) required then
        Some (project_reqs tg required)
      else None)
    tgs

let opt_group_filter ~prim ~opt tgs =
  List.filter_map
    (fun tg ->
      if List.for_all (satisfies tg) prim then
        Some (project_reqs tg (prim @ opt))
      else None)
    tgs

let n_split ~prim ~secs tgs =
  List.concat_map
    (fun tg ->
      List.concat
        (List.mapi
           (fun i sec ->
             if List.for_all (Triplegroup.has_prop tg) sec then
               [ (i, Triplegroup.project tg (prim @ sec)) ]
             else [])
           secs))
    tgs

type alpha = { required : Term.t list; forbidden : Term.t list }

let alpha_true = { required = []; forbidden = [] }

let alpha_holds_tg a (tg : Triplegroup.t) =
  List.for_all (Triplegroup.has_prop tg) a.required
  && not (List.exists (Triplegroup.has_prop tg) a.forbidden)

let alpha_holds a (j : Joined.t) =
  List.for_all (Joined.has_prop j) a.required
  && not (List.exists (Joined.has_prop j) a.forbidden)

type join_key = {
  star : int;
  access : [ `Subject | `ObjectOf of Term.t | `AnyObject ];
}

let key_values k (j : Joined.t) =
  (* Distinct key values: the same object can occur under several
     properties; emitting it twice would duplicate join results. *)
  match Joined.part j k.star with
  | None -> []
  | Some tg -> (
    match k.access with
    | `Subject -> [ tg.Triplegroup.subject ]
    | `ObjectOf p -> List.sort_uniq Term.compare (Triplegroup.objects_of tg p)
    | `AnyObject ->
      List.map (fun (t : Rapida_rdf.Triple.t) -> t.o) tg.Triplegroup.triples
      |> List.sort_uniq Term.compare)

module Term_tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

let alpha_join ~left ~right ~left_key ~right_key ~alphas =
  let index = Term_tbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun key ->
          let existing =
            Option.value ~default:[] (Term_tbl.find_opt index key)
          in
          Term_tbl.replace index key (r :: existing))
        (key_values right_key r))
    right;
  List.concat_map
    (fun l ->
      List.concat_map
        (fun key ->
          match Term_tbl.find_opt index key with
          | None -> []
          | Some rights ->
            List.filter_map
              (fun r ->
                let combined = Joined.join l r in
                if
                  alphas = []
                  || List.exists (fun a -> alpha_holds a combined) alphas
                then Some combined
                else None)
              (List.rev rights))
        (key_values left_key l))
    left

let agg_join ~base ~detail ~theta ~alpha ~inputs ~aggs =
  let eligible = List.filter alpha detail in
  List.map
    (fun b ->
      let states =
        List.map (fun (f, distinct) -> Aggregate.init f ~distinct) aggs
      in
      let states =
        List.fold_left
          (fun states d ->
            if theta b d then
              List.fold_left
                (fun states row ->
                  List.map2 (fun s v -> Aggregate.add s v) states row)
                states (inputs b d)
            else states)
          states eligible
      in
      (b, List.map Aggregate.finish states))
    base
