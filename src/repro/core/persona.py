"""Persona creation (§3.1).

The paper fills every sign-up form with a fixed persona — username, name,
phone, email address, date of birth, gender, job title and postal address —
and considers *any* information input by the user to be PII.  The persona is
therefore the ground truth the detector searches for.

Each PII category exposes its *surface forms*: the textual variants a site
or tracker might serialize (e.g. ``John Smith`` vs ``john.smith`` vs the
individual name parts), because trackers hash whichever form their snippet
happens to read from the form or the data layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# PII categories, following the paper's Table 1c terminology.
PII_EMAIL = "email"
PII_USERNAME = "username"
PII_NAME = "name"
PII_PHONE = "phone"
PII_DOB = "dob"
PII_GENDER = "gender"
PII_JOB = "job"
PII_ADDRESS = "address"

PII_TYPES = (
    PII_EMAIL,
    PII_USERNAME,
    PII_NAME,
    PII_PHONE,
    PII_DOB,
    PII_GENDER,
    PII_JOB,
    PII_ADDRESS,
)


@dataclass(frozen=True)
class Persona:
    """The simulated user whose PII seeds both forms and detection."""

    # The mailbox-local part deliberately avoids the persona's name parts so
    # that a plaintext email match is never simultaneously a name match
    # (keeps Table 1c's PII-type categories disjoint at the token level).
    email: str = "ar.shopper.2091@pmail.example"
    username: str = "alexromero91"
    first_name: str = "Alex"
    last_name: str = "Romero"
    phone: str = "+81-90-5501-2763"
    date_of_birth: str = "1991-03-14"
    gender: str = "other"
    job_title: str = "research engineer"
    street: str = "2-1-2 Hitotsubashi"
    city: str = "Chiyoda-ku Tokyo"
    postcode: str = "101-8430"
    country: str = "JP"
    password: str = "N0t-A-Real-Secret!91"

    @property
    def full_name(self) -> str:
        return "%s %s" % (self.first_name, self.last_name)

    def form_fields(self) -> Dict[str, str]:
        """Canonical field-name -> value mapping used to fill forms."""
        return {
            "email": self.email,
            "username": self.username,
            "first_name": self.first_name,
            "last_name": self.last_name,
            "name": self.full_name,
            "phone": self.phone,
            "dob": self.date_of_birth,
            "gender": self.gender,
            "job_title": self.job_title,
            "street": self.street,
            "city": self.city,
            "postcode": self.postcode,
            "country": self.country,
            "password": self.password,
        }

    def surface_forms(self) -> Dict[str, Tuple[str, ...]]:
        """PII type -> textual variants a leaking script might serialize.

        Variants cover the casings and concatenations observed in the wild:
        trackers hash emails lower-cased (Facebook's advanced matching
        normalization), send names as given, joined, or lower-cased, and
        strip phone numbers to digits.
        """
        email = self.email
        phone_digits = "".join(ch for ch in self.phone if ch.isdigit())
        return {
            PII_EMAIL: _dedupe((email, email.lower(), email.upper())),
            PII_USERNAME: _dedupe((self.username, self.username.lower())),
            PII_NAME: _dedupe((
                self.full_name,
                self.full_name.lower(),
                self.first_name,
                self.last_name,
                "%s.%s" % (self.first_name.lower(), self.last_name.lower()),
                "%s+%s" % (self.first_name, self.last_name),
            )),
            PII_PHONE: _dedupe((self.phone, phone_digits)),
            PII_DOB: _dedupe((self.date_of_birth,
                              self.date_of_birth.replace("-", ""))),
            PII_GENDER: (self.gender,),
            PII_JOB: _dedupe((self.job_title, self.job_title.lower())),
            PII_ADDRESS: _dedupe((self.street, self.city, self.postcode)),
        }


def _dedupe(values: Tuple[str, ...]) -> Tuple[str, ...]:
    seen: List[str] = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return tuple(seen)


#: The persona used throughout the study, mirroring the paper's single
#: fixed persona created in May 2021.
DEFAULT_PERSONA = Persona()
