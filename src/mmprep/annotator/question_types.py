"""The clip-QA question taxonomy: 63 categories with stable indices.

The pool is frozen data; every QA request names TYPES_PER_REQUEST of them,
sampled per clip (and per story) so questions stay varied across a large
corpus.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class QuestionType:
    index: int
    name: str
    description: str


_POOL_ROWS = (
    (1, 'object_recognition', 'Questions about what an object is'),
    (2, 'object_properties', 'Questions about object properties, such as color, shape, material, texture'),
    (3, 'object_count', 'Questions about the number of objects'),
    (4, 'object_state', 'Questions about object states, such as stretched, compressed, cut, stationary'),
    (5, 'object_location', 'Questions about where an object is located'),
    (6, 'object_presence', 'Questions about object existence'),
    (7, 'human_attributes', 'Questions about human attributes, such as height, body type, build'),
    (8, 'human_pose', 'Questions about human posture'),
    (9, 'human_appearance', 'Questions about human external appearance, such as clothing and makeup'),
    (10, 'human_identity', 'Questions about human identity'),
    (11, 'human_cognitive_process', 'Questions about human mental processes, including intentions, motivations, decision-making rationale, problem-solving approaches, and reasoning methods'),
    (12, 'human_location', 'Questions about human location'),
    (13, 'human_emotion', 'Questions about human emotional state'),
    (14, 'scene_description', 'Questions about overall scene description'),
    (15, 'text_recognition', 'Questions about text content appearing in the video'),
    (16, 'text_count', 'Questions about frequency of text appearances in the video'),
    (17, 'text_location', 'Questions about location of text in the video'),
    (18, 'single_object_event_recognition', 'Questions about events involving a single object'),
    (19, 'single_object_event_count', 'Questions about frequency of single-object events'),
    (20, 'single_object_state_change', 'Questions about changes in single object state'),
    (21, 'single_object_quantity_change', 'Questions about changes in single object quantity'),
    (22, 'single_object_location_change', 'Questions about changes in single object location'),
    (23, 'single_object_trajectory', 'Questions about single object motion trajectory'),
    (24, 'single_object_speed', 'Questions about single object movement speed'),
    (25, 'single_object_presence_change', 'Questions about changes in single object presence'),
    (26, 'human_object_interaction_recognition', 'Questions about types of human-object interaction'),
    (27, 'human_object_interaction_count', 'Questions about frequency of human-object interactions'),
    (28, 'human_human_interaction_recognition', 'Questions about types of human-human interaction'),
    (29, 'object_interaction', "Questions about objects' states, actions, interactions, changes, identifications (including brands), and how objects affect or interact with other objects"),
    (30, 'abnormal_event_detection', 'Questions about presence of abnormal events'),
    (31, 'domain_medical', 'Questions about medical-related professional knowledge'),
    (32, 'domain_education', 'Questions about education-related professional knowledge'),
    (33, 'domain_sports', 'Questions about sports-related professional knowledge'),
    (34, 'domain_movies', 'Questions about movie-related professional knowledge'),
    (35, 'domain_gaming', 'Questions about gaming-related professional knowledge'),
    (36, 'domain_technology', 'Questions about technology-related professional knowledge'),
    (37, 'domain_arts', 'Questions about arts-related professional knowledge'),
    (38, 'video_editing_effects', 'Questions about video editing effects, including shot transitions, editing effects, transition effects, etc.'),
    (39, 'camera_movement', 'Questions about camera motion'),
    (40, 'spatial_relationship', 'Questions about spatial relationships between objects'),
    (41, 'property_comparison', 'Questions about comparison of multiple object properties'),
    (42, 'quantity_comparison', 'Questions about comparison of multiple object quantities'),
    (43, 'state_comparison', 'Questions about comparison of multiple object states'),
    (44, 'human_object_relationship', 'Questions about human-object relationships'),
    (45, 'human_human_relationship', 'Questions about human-human relationships'),
    (46, 'scene_sequence', 'Questions about temporal relationships between scenes'),
    (47, 'event_sequence', 'Questions about temporal relationships between events'),
    (48, 'event_causality', 'Questions about causal relationships between events, including both human-initiated actions and their consequences, as well as cause-effect relationships in natural or systematic processes'),
    (49, 'counterfactual_reasoning', 'Questions about counterfactual reasoning'),
    (50, 'trajectory_tracking', 'Questions about tracking object or human positions'),
    (51, 'speed_comparison', 'Questions about speed comparison between multiple objects or humans'),
    (52, 'event_prediction', 'Questions about future event prediction'),
    (53, 'anomaly_reasoning', 'Questions about causes of anomalous phenomena'),
    (54, 'planning', 'Questions about planning for specific tasks'),
    (55, 'navigation', 'Questions about navigation to destinations'),
    (56, 'human_action', 'Questions about actions, behaviors, movements or activities performed by humans, including analysis of techniques, efficiency, and patterns of behavior'),
    (57, 'dialogue_content', 'Questions about spoken dialogue, verbal content, or conversations between characters/people'),
    (58, 'event_summary', 'Questions about overall event summary'),
    (59, 'object_ordering', 'Questions about the sequence or order in which objects are placed, arranged, or handled by individuals'),
    (60, 'event_location', 'Questions about where events or activities take place'),
    (61, 'process_description', 'Questions about identifying key components, steps, or progression in a process involving objects and/or humans'),
    (62, 'video_topic', 'Questions about the main subject, focus, or theme covered in the video'),
    (63, 'anomaly_recognition', 'Questions about identifying and interpreting anomalies'),
)

QUESTION_TYPES: tuple[QuestionType, ...] = tuple(QuestionType(*row) for row in _POOL_ROWS)
TYPES_PER_REQUEST = 5
TYPES_BY_NAME: dict[str, QuestionType] = {t.name: t for t in QUESTION_TYPES}


def pool_checksum(pool: tuple[QuestionType, ...] = QUESTION_TYPES) -> str:
    """sha256 over the canonical index/name/description serialization."""
    canonical = "\n".join(f"{t.index}\t{t.name}\t{t.description}" for t in pool)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sample_question_types(seed: int) -> list[QuestionType]:
    """TYPES_PER_REQUEST distinct types in seeded pseudo-random order; same seed, same pick."""
    return random.Random(seed).sample(QUESTION_TYPES, TYPES_PER_REQUEST)
